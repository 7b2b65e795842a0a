package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
)

// span is one recorded interval. Durations and allocation counts are
// totals; the child fields let self values be derived without a second
// pass.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Req    int    `json:"req"`

	allocs, bytes           uint64
	childNS                 int64
	childAllocs, childBytes uint64
}

func (s *span) selfNS() int64           { return s.End - s.Start - s.childNS }
func (s *span) selfAllocs() uint64      { return s.allocs - s.childAllocs }
func (s *span) selfBytes() uint64       { return s.bytes - s.childBytes }
func (s *span) duration() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps spans in memory; write dumps them at exit. It is used
// from one goroutine, and the allocation counts are process-wide
// runtime/metrics deltas, so the traced work must be the only work the
// process does while a span is open.
type recorder struct {
	epoch   time.Time
	spans   []span
	stack   []int
	samples []metrics.Sample
}

func newRecorder() *recorder {
	return &recorder{
		epoch: time.Now(),
		samples: []metrics.Sample{
			{Name: "/gc/heap/allocs:objects"},
			{Name: "/gc/heap/allocs:bytes"},
		},
	}
}

func (r *recorder) heap() (objects, bytes uint64) {
	metrics.Read(r.samples)
	return r.samples[0].Value.Uint64(), r.samples[1].Value.Uint64()
}

// begin opens a span under the innermost open one. The heap counters are
// read before the clock, and end reads the clock first, so a span's
// duration excludes the recorder's own reads.
func (r *recorder) begin(name string, req int) int {
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	objs, bytes := r.heap()
	id := len(r.spans)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Req: req, allocs: objs, bytes: bytes})
	r.stack = append(r.stack, id)
	r.spans[id].Start = int64(time.Since(r.epoch))
	return id
}

func (r *recorder) end(id int) {
	end := int64(time.Since(r.epoch))
	objs, bytes := r.heap()
	s := &r.spans[id]
	s.End = end
	s.allocs = objs - s.allocs
	s.bytes = bytes - s.bytes
	r.stack = r.stack[:len(r.stack)-1]
	if s.Parent >= 0 {
		p := &r.spans[s.Parent]
		p.childNS += s.End - s.Start
		p.childAllocs += s.allocs
		p.childBytes += s.bytes
	}
}

// do records f as one span.
func (r *recorder) do(name string, req int, f func()) {
	id := r.begin(name, req)
	f()
	r.end(id)
}

// write dumps every span as one JSON line.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// walkCounts are the deterministic work counts of one layer walk.
type walkCounts struct {
	blocks, phis              int
	instrsBefore, instrsAfter int
	steps                     int64
	builds                    map[analysis.Kind]int
}

// stageSpan names the span that mirrors one pipeline stage execution;
// its children are the layer calls the stage makes.
func stageSpan(stage string) string { return "stage." + stage }

// walk runs p through the layers' public functions in the order
// pipeline.Run uses for opts (which must only set Lang, StaticProfile,
// SkipMeasurement, Workers 1 and Interp), recording a span around every
// call. Like the pipeline, it compiles the source twice (baseline and
// promoted) and shares one analysis cache between all calls.
func walk(rec *recorder, req int, p program, opts pipeline.Options) (*pipeline.Outcome, walkCounts, error) {
	cache := analysis.New()
	out := &pipeline.Outcome{Stats: map[string]*core.Stats{}}
	var counts walkCounts
	var err error
	stage := func(name string, f func()) {
		if err == nil {
			rec.do(stageSpan(name), req, f)
		}
	}

	root := rec.begin("pipeline.run", req)
	defer rec.end(root)

	frontend := func() (*ir.Program, map[string]*cfg.Forest) {
		var prog *ir.Program
		stage(pipeline.StageCompile, func() {
			if p.Lang == irimport.LangIR {
				rec.do("irimport.compile", req, func() { prog, err = irimport.Compile(p.Src) })
			} else {
				rec.do("source.compile", req, func() { prog, err = source.Compile(p.Src) })
			}
		})
		stage(pipeline.StageAlias, func() {
			rec.do("alias.analyze", req, func() { err = alias.Analyze(prog) })
		})
		if err != nil {
			return nil, nil
		}
		forests := make(map[string]*cfg.Forest, len(prog.Funcs))
		for _, f := range prog.Funcs {
			stage(pipeline.StageNormalize, func() {
				var forest *cfg.Forest
				rec.do("cfg.normalize", req, func() { forest, err = cfg.Normalize(f) })
				if err == nil {
					forests[f.Name] = forest
					cache.PutIntervals(f, forest)
				}
			})
		}
		return prog, forests
	}

	before, beforeForests := frontend()
	if err != nil {
		return nil, counts, err
	}
	out.StaticBefore = countStatic(before)
	counts.instrsBefore = countInstrs(before)

	prof := profile.NewProfile()
	stage(pipeline.StageTrain, func() {
		if opts.StaticProfile {
			for _, f := range before.Funcs {
				rec.do("profile.estimate", req, func() { prof.Funcs[f.Name] = profile.Estimate(f, beforeForests[f.Name]) })
			}
			return
		}
		popts := opts.Interp
		popts.CollectProfile = true
		var res *interp.Result
		rec.do("interp.train", req, func() { res, err = interp.Run(before, popts) })
		if err == nil {
			prof = res.Profile
			counts.steps += res.Steps
		}
	})
	measure := func(name string, prog *ir.Program) *interp.Result {
		var res *interp.Result
		stage(name, func() {
			rec.do("interp.measure", req, func() { res, err = interp.Run(prog, opts.Interp) })
			if err == nil {
				counts.steps += res.Steps
			}
		})
		return res
	}
	if !opts.SkipMeasurement {
		out.Before = measure(pipeline.StageMeasureBefore, before)
	}

	after, forests := frontend()
	if err != nil {
		return nil, counts, err
	}
	for _, f := range after.Funcs {
		counts.blocks += len(f.Blocks)
		prof.ForFunc(f.Name)
	}
	for _, f := range after.Funcs {
		fp := prof.ForFunc(f.Name)
		var dom *cfg.DomTree
		var df cfg.DomFrontiers
		analyses := func() {
			rec.do("analysis.dom", req, func() { dom = cache.Dom(f) })
			rec.do("analysis.df", req, func() { df = cache.DF(f) })
		}
		stage(pipeline.StageSSABuild, func() {
			rec.do("cfg.remove_unreachable", req, func() { cfg.RemoveUnreachable(f) })
			analyses()
			rec.do("ssa.build", req, func() { err = ssa.BuildWith(f, dom, df) })
			counts.phis += countOp(f, ir.OpPhi)
		})
		var stats *core.Stats
		stage(pipeline.StagePromote, func() {
			analyses()
			ccfg := core.Config{Profile: fp, Scope: core.ScopeIntervals, CountTailStores: true, Dom: dom, DF: df}
			rec.do("core.promote", req, func() { stats, err = core.PromoteFunction(f, forests[f.Name], ccfg) })
		})
		stage(pipeline.StageDestruct, func() {
			rec.do("ssa.destruct", req, func() { ssa.Destruct(f) })
		})
		stage(pipeline.StageVerify, func() {
			rec.do("ir.verify", req, func() { err = f.Verify(ir.VerifyCFG) })
		})
		if err != nil {
			return nil, counts, fmt.Errorf("%s: %w", f.Name, err)
		}
		out.Stats[f.Name] = stats
		out.TotalStats.Add(*stats)
	}
	if !opts.SkipMeasurement {
		out.After = measure(pipeline.StageMeasureAfter, after)
		if err != nil {
			return nil, counts, err
		}
	}
	out.Prog = after
	out.Profile = prof
	out.StaticAfter = countStatic(after)
	counts.instrsAfter = countInstrs(after)
	counts.builds = cache.TotalBuilds()
	return out, counts, nil
}

func countStatic(prog *ir.Program) pipeline.StaticCounts {
	return pipeline.StaticCounts{Loads: countProgOp(prog, ir.OpLoad), Stores: countProgOp(prog, ir.OpStore)}
}

func countProgOp(prog *ir.Program, op ir.Op) int {
	n := 0
	for _, f := range prog.Funcs {
		n += countOp(f, op)
	}
	return n
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func countInstrs(prog *ir.Program) int {
	n := 0
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			n += len(b.Instrs)
		}
	}
	return n
}
