package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/pipeline"
)

// batchOptions are the pipeline options a batch workload compiles with:
// the defaults (training profile, measurement before and after, the
// production interpreter) for the suite, the promote-only path for
// gen-static. One function at a time, so stage times are not contended.
func batchOptions(name string, p program) pipeline.Options {
	if name == wGenStatic {
		return pipeline.Options{StaticProfile: true, SkipMeasurement: true, Workers: 1}
	}
	return pipeline.Options{Lang: p.Lang, Workers: 1}
}

// childResult is what one batch child process reports on stdout.
type childResult struct {
	WarmEndNS int64    `json:"warm_end_unix_ns"`
	Programs  int      `json:"programs"` // compiles attempted
	Failed    int      `json:"failed"`
	Errors    []string `json:"errors,omitempty"`
	// Funcs and TimesMS are per program: its function count and the
	// wall time of each of its compiles.
	Funcs       []int         `json:"funcs"`
	TimesMS     [][]float64   `json:"times_ms"`
	PeakRSSMB   float64       `json:"peak_rss_mb"`
	Digests     []string      `json:"digests"`
	Checks      []batchCheck  `json:"checks,omitempty"`
	CheckErrors []string      `json:"check_errors,omitempty"`
	Trace       *traceSummary `json:"trace,omitempty"`
}

// runChild is the batch child's main: it compiles the workload's
// programs after a warm-up, for the given time, and reports latencies,
// digests of every outcome, and (when check is set) the promoted
// programs' reference runs. A setupOnly child stops after the warm-up.
func runChild(name string, seed int64, limit int, seconds float64, setupOnly, check, trace bool, spansPath string) error {
	progs, err := batchCorpus(name, seed, limit)
	if err != nil {
		return err
	}
	warm := progs
	if name == wGenStatic && len(warm) > genWarmup {
		warm = warm[:genWarmup]
	}
	for _, p := range warm {
		if _, err := pipeline.Run(p.Src, batchOptions(name, p)); err != nil {
			return fmt.Errorf("warm-up %s: %w", p.Name, err)
		}
	}
	res := childResult{WarmEndNS: time.Now().UnixNano()}
	if setupOnly {
		return json.NewEncoder(os.Stdout).Encode(res)
	}
	res.Funcs, res.TimesMS = make([]int, len(progs)), make([][]float64, len(progs))
	res.Digests = make([]string, len(progs))
	if check {
		res.Checks = make([]batchCheck, len(progs))
	}
	// inspect digests a first-pass outcome and, in the checking round,
	// runs the promoted program on the reference interpreter. It returns
	// how long that took, which the timed loop does not count.
	inspect := func(i int, out *pipeline.Outcome) time.Duration {
		t0 := time.Now()
		h := sha256.New()
		h.Write([]byte(out.Report()))
		h.Write([]byte(out.Prog.String()))
		res.Digests[i] = hex.EncodeToString(h.Sum(nil))
		if check {
			c, err := checkOutcome(out)
			if err != nil {
				res.CheckErrors = append(res.CheckErrors, fmt.Sprintf("%s: %v", progs[i].Name, err))
			}
			res.Checks[i] = c
		}
		return time.Since(t0)
	}

	if trace {
		rec := newRecorder()
		sum, err := traceBatch(rec, progs, func(p program) pipeline.Options { return batchOptions(name, p) }, seconds,
			func(i int, out *pipeline.Outcome) { inspect(i, out) })
		if err != nil {
			return err
		}
		if err := rec.write(spansPath); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
		res.Trace = sum
		res.Programs = len(progs)
	} else {
		// Compile program after program, round robin: one full pass, then
		// until the time is used up.
		deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	passes:
		for pass := 0; ; pass++ {
			for i, p := range progs {
				if pass > 0 && !time.Now().Before(deadline) {
					break passes
				}
				t0 := time.Now()
				out, err := pipeline.Run(p.Src, batchOptions(name, p))
				d := time.Since(t0)
				res.Programs++
				if err != nil {
					res.Failed++
					if len(res.Errors) < 5 {
						res.Errors = append(res.Errors, fmt.Sprintf("%s: %v", p.Name, err))
					}
					continue
				}
				res.Funcs[i] = len(out.Prog.Funcs)
				res.TimesMS[i] = append(res.TimesMS[i], ms(d))
				if pass == 0 {
					deadline = deadline.Add(inspect(i, out))
				}
			}
		}
	}
	res.PeakRSSMB = peakRSSMB("self")
	return json.NewEncoder(os.Stdout).Encode(res)
}

// batchRun drives one batch workload over its rounds (see round), then
// runs the reference check in this process.
type batchRun struct {
	name    string
	seed    int64
	limit   int     // programs, when positive
	seconds float64 // measured per round
	trace   bool
	spans   string // span file path when tracing

	progs   []program
	results []childResult
	setup   []float64
	err     error
}

// round starts batchSetups children one after the other: all but the
// last only set up, the last measures. Each one's set-up time is kept. A
// traced run reports no set-up time and starts only the measuring child.
func (b *batchRun) round(i int) {
	setups := batchSetups
	if b.trace {
		setups = 1
	}
	for k := 0; k < setups && b.err == nil; k++ {
		res, err := b.child(i, k < setups-1)
		if err != nil {
			b.err = fmt.Errorf("%s round %d child: %w", b.name, i, err)
			return
		}
		if k == setups-1 {
			b.results = append(b.results, res)
		}
	}
}

// child runs one batch child process and records its set-up time: from
// the spawn to the end of its warm-up.
func (b *batchRun) child(round int, setupOnly bool) (childResult, error) {
	self, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	args := []string{"-child", "-workload", b.name, "-seed", strconv.FormatInt(b.seed, 10),
		"-programs", strconv.Itoa(b.limit), "-seconds", formatValue(b.seconds),
		"-setup-only=" + strconv.FormatBool(setupOnly), "-check=" + strconv.FormatBool(round == 0 && !setupOnly)}
	if b.trace {
		args = append(args, "-trace", "1", "-spans", b.spans)
	}
	cmd := exec.Command(self, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	setChildAttrs(cmd)
	spawn := time.Now()
	if err := cmd.Run(); err != nil {
		return childResult{}, err
	}
	var res childResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return childResult{}, fmt.Errorf("child output: %w", err)
	}
	b.setup = append(b.setup, float64(res.WarmEndNS-spawn.UnixNano())/1e9)
	return res, nil
}

// finish combines the rounds into the workload's result and runs the
// reference check.
func (b *batchRun) finish() workloadResult {
	w := workloadResult{Workload: b.name, Correct: true, Valid: true, Metrics: map[string]metricValue{}}
	if b.err != nil {
		w.problem("%v", b.err)
		return w
	}
	var rssRounds, fnRounds []float64
	pooled := make([][]float64, len(b.progs))
	for _, r := range b.results {
		w.Attempted += r.Programs
		w.Failed += r.Failed
		for _, e := range r.Errors {
			w.problem("pipeline error: %s", e)
		}
		for i, ts := range r.TimesMS {
			pooled[i] = append(pooled[i], ts...)
		}
		fn, _ := batchRates(r.Funcs, r.TimesMS)
		fnRounds = append(fnRounds, fn)
		rssRounds = append(rssRounds, r.PeakRSSMB)
	}
	if w.Attempted > 0 {
		w.FailRatio = float64(w.Failed) / float64(w.Attempted)
	}
	b.check(&w)
	if b.trace {
		if t := b.results[0].Trace; t != nil {
			t.apply(&w)
		}
		return w
	}
	fn, fast := batchRates(b.results[0].Funcs, pooled)
	w.set("setup_s", median(b.setup), b.setup)
	w.set("fn_per_s", fn, fnRounds)
	w.set("p50_ms", percentile(fast, 0.50), nil)
	w.set("p90_ms", percentile(fast, 0.90), nil)
	w.set("peak_rss_mb", median(rssRounds), rssRounds)
	var all []float64
	for _, ts := range pooled {
		all = append(all, ts...)
	}
	w.diag("all_compiles_p50_ms", percentile(all, 0.50))
	w.diag("all_compiles_p90_ms", percentile(all, 0.90))
	w.diag("all_compiles_p99_ms", percentile(all, 0.99))
	w.diag("compiles", float64(len(all)))
	return w
}

// fastShare is the quantile of a program's compile times taken as its
// cost. On a shared 2-vCPU VM the speed swings by a third within
// seconds, for minutes at a time, when other tenants are busy (CPU time
// swings with wall time, so it is not preemption), and a median over
// rounds moved 22% between runs. Such noise only ever slows a compile down, so the
// fastest tenth of a program's compiles tracks the code instead of the
// neighbours.
const fastShare = 0.1

// batchRates turns per-program compile times into the batch metrics:
// each program costs the fastShare quantile of its times, and a pass
// over the corpus costs the sum of those. It returns functions compiled
// per second of that pass, and the per-program costs.
func batchRates(funcs []int, timesMS [][]float64) (fnPerS float64, costMS []float64) {
	var total float64
	nf := 0
	for i, ts := range timesMS {
		if len(ts) == 0 {
			continue
		}
		c := percentile(ts, fastShare)
		costMS = append(costMS, c)
		total += c
		nf += funcs[i]
	}
	if total == 0 {
		return 0, costMS
	}
	return float64(nf) / (total / 1e3), costMS
}

// check runs every program unpromoted on the reference interpreter and
// holds round 0's promoted outcomes against it; later rounds must have
// produced byte-identical outcomes.
func (b *batchRun) check(w *workloadResult) {
	first := b.results[0]
	for _, e := range first.CheckErrors {
		w.problem("%s", e)
	}
	if len(first.Checks) != len(b.progs) {
		w.problem("child checked %d of %d programs", len(first.Checks), len(b.progs))
		return
	}
	var removed []float64
	for i, p := range b.progs {
		ref, err := referenceBefore(p)
		if err != nil {
			w.problem("%s: reference run: %v", p.Name, err)
			continue
		}
		if d := judge(ref, first.Checks[i]); d != "" {
			w.problem("%s: %s\n%s", p.Name, d, indent(p.Src))
		}
		if ref.MemOps > 0 {
			removed = append(removed, removedPct(ref.MemOps, first.Checks[i].After.MemOps))
		}
		for r, res := range b.results[1:] {
			if res.Digests[i] != first.Digests[i] {
				w.problem("%s: round %d outcome differs from round 0", p.Name, r+1)
			}
		}
	}
	w.diag("checked_programs", float64(len(b.progs)))
	w.memops(removed)
}

// removedPct is the share of a program's dynamic singleton loads and
// stores that promotion removed.
func removedPct(before, after int64) float64 {
	return 100 * float64(before-after) / float64(before)
}

func indent(src string) string {
	return "\t" + strings.ReplaceAll(strings.TrimSpace(src), "\n", "\n\t")
}

// childEnv is the environment of every process the benchmark starts:
// GOMAXPROCS pinned to the CPUs available and cgo off.
func childEnv() []string {
	var env []string
	for _, kv := range os.Environ() {
		if !strings.HasPrefix(kv, "GOMAXPROCS=") && !strings.HasPrefix(kv, "CGO_ENABLED=") {
			env = append(env, kv)
		}
	}
	return append(env, fmt.Sprintf("GOMAXPROCS=%d", runtime.NumCPU()), "CGO_ENABLED=0")
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MiB; pid is
// a number or "self".
func peakRSSMB(pid string) float64 {
	data, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) >= 1 {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
