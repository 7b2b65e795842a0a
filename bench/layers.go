package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/pipeline"
)

// stageTolerance is how far a stage's traced time may stray from the
// pipeline's own Outcome.Timings, each summed over every program's
// fastest pass. On top of it, stageSlack is allowed per stage execution
// in a pass: the pipeline's stage wrapper (timer, fault hook, recover)
// costs a few microseconds, which on serve-hot's smallest functions is a
// third of the stage. stageStall allows for a stall of the host that
// covers both passes of a program, which in a short traced run (the smoke
// test's) can outweigh a whole stage.
const (
	stageTolerance = 0.25
	stageSlack     = 10 * time.Microsecond
	stageStall     = 5 * time.Millisecond
)

// traceSummary is a traced run's per-layer result.
type traceSummary struct {
	Metrics  map[string]float64 `json:"metrics"`
	Problems []string           `json:"problems,omitempty"`
	Passes   int                `json:"passes"`
}

func (t *traceSummary) apply(w *workloadResult) {
	for name, v := range t.Metrics {
		w.set(name, v, nil)
	}
	for _, p := range t.Problems {
		w.problem("trace: %s", p)
	}
	w.diag("trace_passes", float64(t.Passes))
}

// layerAgg sums one layer span name's self values.
type layerAgg struct {
	calls         int
	selfNS        int64
	allocs, bytes uint64
}

// tracePasses is the fewest passes a traced run makes, so that the stage
// cross-check can take each program's fastest pass on both sides: with a
// single pass, one stall of the host failed the smoke test's short runs.
const tracePasses = 2

// traceBatch alternates, program by program, an untraced pipeline.Run
// with a traced layer walk of the same program (swapping which goes first
// every pass) for at least tracePasses passes and until seconds have
// elapsed. It cross-checks every walk against the pipeline's outcome and
// every stage's traced time against the pipeline's timings, then derives
// the per-layer metrics. inspect, when set, sees every program's
// first-pass pipeline outcome.
func traceBatch(rec *recorder, progs []program, optsFor func(program) pipeline.Options, seconds float64, inspect func(int, *pipeline.Outcome)) (*traceSummary, error) {
	first := len(rec.spans)
	sum := &traceSummary{Metrics: map[string]float64{}}
	// Per stage and program, the stage's time in the program's fastest
	// pass, untraced (from Outcome.Timings) and traced (the layer calls
	// under the stage's span); and the stage's executions in one pass.
	pipeBest, walkBest := map[string][]time.Duration{}, map[string][]time.Duration{}
	pipeExecs := map[string]int{}
	keepBest := func(best map[string][]time.Duration, i int, run map[string]time.Duration) {
		for st, d := range run {
			b := best[st]
			if b == nil {
				b = make([]time.Duration, len(progs))
				best[st] = b
			}
			if b[i] == 0 || d < b[i] {
				b[i] = d
			}
		}
	}
	var untraced, traced time.Duration
	var counts walkCounts
	var stats core.Stats
	builds := map[analysis.Kind]int{}
	mismatched := map[int]bool{}

	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for pass := 0; pass < tracePasses || time.Now().Before(deadline); pass++ {
		for i, p := range progs {
			opts := optsFor(p)
			var out, wout *pipeline.Outcome
			var c walkCounts
			var err error
			runPipe := func() {
				t0 := time.Now()
				out, err = pipeline.Run(p.Src, opts)
				untraced += time.Since(t0)
			}
			walkStage := map[string]time.Duration{}
			runWalk := func() {
				mark := len(rec.spans)
				t0 := time.Now()
				wout, c, err = walk(rec, i, p, opts)
				traced += time.Since(t0)
				for _, s := range rec.spans[mark:] {
					if s.Parent >= 0 {
						if st, ok := strings.CutPrefix(rec.spans[s.Parent].Name, "stage."); ok {
							walkStage[st] += s.duration()
						}
					}
				}
			}
			if pass%2 == 0 {
				runPipe()
				if err == nil {
					runWalk()
				}
			} else {
				runWalk()
				if err == nil {
					runPipe()
				}
			}
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p.Name, err)
			}
			pipeStage := map[string]time.Duration{}
			for _, t := range out.Timings {
				pipeStage[t.Stage] += t.Wall
				if pass == 0 {
					pipeExecs[t.Stage]++
				}
			}
			keepBest(pipeBest, i, pipeStage)
			keepBest(walkBest, i, walkStage)
			if pass == 0 && inspect != nil {
				inspect(i, out)
			}
			if got, want := wout.Report(), out.Report(); got != want && !mismatched[i] {
				mismatched[i] = true
				sum.Problems = append(sum.Problems, fmt.Sprintf("%s: layer walk disagrees with pipeline.Run\nwalk:\n%spipeline:\n%s", p.Name, got, want))
			}
			if pass == 0 {
				counts.blocks += c.blocks
				counts.phis += c.phis
				counts.instrsBefore += c.instrsBefore
				counts.instrsAfter += c.instrsAfter
				counts.steps += c.steps
				stats.Add(wout.TotalStats)
				for k, n := range c.builds {
					builds[k] += n
				}
			}
		}
		sum.Passes++
	}
	layers := map[string]*layerAgg{}
	for i := first; i < len(rec.spans); i++ {
		s := &rec.spans[i]
		if s.Name == "pipeline.run" || strings.HasPrefix(s.Name, "stage.") {
			continue
		}
		a := layers[s.Name]
		if a == nil {
			a = &layerAgg{}
			layers[s.Name] = a
		}
		a.calls++
		a.selfNS += s.selfNS()
		a.allocs += s.selfAllocs()
		a.bytes += s.selfBytes()
	}

	walks := float64(sum.Passes * len(progs))
	passes := float64(sum.Passes)
	get := func(name string) layerAgg {
		if a := layers[name]; a != nil {
			return *a
		}
		return layerAgg{}
	}
	m := sum.Metrics
	perProgMS := func(ns int64) float64 { return float64(ns) / 1e6 / walks }
	for _, name := range []string{"source.compile", "irimport.compile", "alias.analyze", "cfg.normalize",
		"cfg.remove_unreachable", "profile.estimate", "interp.train", "interp.measure", "ssa.build",
		"ssa.destruct", "core.promote", "ir.verify"} {
		a := get(name)
		m[name+".self_ms"] = perProgMS(a.selfNS)
		m[name+".allocs"] = float64(a.allocs) / walks
		m[name+".alloc_kb"] = float64(a.bytes) / 1024 / walks
		m[name+".calls"] = float64(a.calls) / passes
	}
	m["analysis.self_ms"] = perProgMS(get("analysis.dom").selfNS + get("analysis.df").selfNS)
	for _, k := range []analysis.Kind{analysis.KindDom, analysis.KindDF, analysis.KindIntervals, analysis.KindRPO, analysis.KindCode} {
		m["analysis.builds."+string(k)] = float64(builds[k])
	}
	m["cfg.blocks"] = float64(counts.blocks)
	m["ssa.phis"] = float64(counts.phis)
	m["ir.instrs_before"] = float64(counts.instrsBefore)
	m["ir.instrs_after"] = float64(counts.instrsAfter)
	m["interp.steps"] = float64(counts.steps)
	if counts.steps > 0 {
		m["interp.ns_per_step"] = float64(get("interp.train").selfNS+get("interp.measure").selfNS) / (float64(counts.steps) * passes)
	}
	m["core.webs_considered"] = float64(stats.WebsConsidered)
	m["core.webs_promoted"] = float64(stats.WebsPromoted)
	if stats.WebsConsidered > 0 {
		m["core.promote_ratio"] = float64(stats.WebsPromoted+stats.WebsLoadOnly) / float64(stats.WebsConsidered)
	}
	m["core.loads_replaced"] = float64(stats.LoadsReplaced)
	m["core.stores_deleted"] = float64(stats.StoresDeleted)
	m["core.loads_inserted"] = float64(stats.LoadsInserted)
	m["core.stores_inserted"] = float64(stats.StoresInserted)

	var layerNS int64
	for _, a := range layers {
		layerNS += a.selfNS
	}
	m["pipeline.unattributed_ms"] = perProgMS(int64(untraced) - layerNS)
	m["trace.overhead_pct"] = 100 * (traced.Seconds() - untraced.Seconds()) / untraced.Seconds()

	total := func(ds []time.Duration) time.Duration {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return t
	}
	stages := make([]string, 0, len(pipeBest))
	for st := range pipeBest {
		stages = append(stages, st)
	}
	sort.Strings(stages)
	for _, st := range stages {
		pipe, traced := total(pipeBest[st]), total(walkBest[st])
		allowed := stageTolerance*pipe.Seconds() + float64(pipeExecs[st])*stageSlack.Seconds() + stageStall.Seconds()
		if math.Abs(traced.Seconds()-pipe.Seconds()) > allowed {
			sum.Problems = append(sum.Problems, fmt.Sprintf("stage %s: traced layer calls took %.3f ms, pipeline timings say %.3f ms (more than %.0f%% + %v per execution + %v apart)",
				st, ms(traced), ms(pipe), 100*stageTolerance, stageSlack, stageStall))
		}
	}
	return sum, nil
}
