// Package pipeline assembles the full register promotion compiler flow
// used by the examples, tools, tests, and the benchmark harness:
//
//	mini-C ─ source.Compile ─ alias.Analyze ─ cfg.Normalize
//	       ─ (training run → profile | static estimate)
//	       ─ ssa.Build ─ core.PromoteFunction ─ opt.Cleanup ─ ssa.Destruct
//
// Because promotion mutates the IR in place, the pipeline compiles the
// source twice: once to measure the baseline program and once to build
// the promoted program, so before/after comparisons run the same input
// on genuinely independent programs.
//
// Every phase of the flow runs as a named, panic-isolated stage: a
// panicking or erring stage becomes a structured *StageError instead of
// killing the process. Per-function stages additionally degrade
// gracefully — the pipeline snapshots each function before transforming
// it, and a failure rolls that one function back to its unpromoted IR,
// records a Degradation in the Outcome, and keeps compiling the rest of
// the program. Options.Check turns on stage-boundary re-verification
// and a paranoid semantic differential check; Options.Faults injects
// deterministic failures so the recovery paths themselves stay tested.
package pipeline

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/baseline"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/diag"
	"repro/internal/faults"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
)

// Algorithm selects the promotion algorithm.
type Algorithm int

const (
	// AlgSSA is the paper's interval-based SSA promotion (internal/core).
	AlgSSA Algorithm = iota
	// AlgBaseline is the loop-based, profile-blind promotion in the
	// style of Lu–Cooper (internal/baseline).
	AlgBaseline
	// AlgMemOpt runs only the memory-SSA scalar optimizations
	// (store-to-load forwarding, redundant load elimination, dead store
	// elimination) without promotion — the ablation showing how much of
	// promotion's win is plain redundancy removal.
	AlgMemOpt
	// AlgNone performs no promotion (control).
	AlgNone
)

// String names the algorithm.
func (a Algorithm) String() string {
	switch a {
	case AlgSSA:
		return "ssa"
	case AlgBaseline:
		return "baseline"
	case AlgMemOpt:
		return "memopt"
	case AlgNone:
		return "none"
	}
	return "?"
}

// Options configures a pipeline run.
type Options struct {
	// Lang selects the input language Run compiles: "" or
	// irimport.LangMiniC ("mc") for the native mini-C frontend, and
	// irimport.LangIR ("ll") for textual LLVM-style IR through
	// internal/irimport. TrainSrc, when set, is parsed with the same
	// language.
	Lang string
	// Algorithm selects the promotion pass (default AlgSSA).
	Algorithm Algorithm
	// PreMemOpts runs store-to-load forwarding, redundant load
	// elimination, and dead store elimination before promotion (only
	// meaningful with AlgSSA).
	PreMemOpts bool
	// WholeFunctionScope promotes once over the whole function body
	// (the paper's rejected first approach) instead of interval by
	// interval; for the scope ablation.
	WholeFunctionScope bool
	// MaxPromotedWebs caps promotions per function (0 = unlimited), a
	// crude register pressure budget.
	MaxPromotedWebs int
	// PressureCap, when positive, makes promotion pressure-aware: each
	// function is promoted through core.PromoteUnderPressure, which
	// guarantees the post-promotion regalloc color count never exceeds
	// max(PressureCap, the function's unpromoted color count) by
	// trial-promoting clones and demoting webs that blow the cap.
	// Per-function results land in Outcome.Pressure. Only meaningful
	// with AlgSSA.
	PressureCap int
	// Diagnose runs the internal/diag rule set over the baseline
	// (pre-promotion) program as an extra isolated whole-program stage
	// and records the findings in Outcome.Diagnostics. The stage reads
	// the program without mutating it; a failure aborts the run like
	// any other whole-program stage.
	Diagnose bool
	// StaticProfile uses the loop-depth estimator instead of a training
	// run when true.
	StaticProfile bool
	// TrainSrc, when non-empty, is a separate program variant (same
	// functions, different input constants) whose execution supplies
	// the training profile — the SPEC train-vs-reference methodology.
	// Block IDs must line up, which holds when the variants differ only
	// in constants; Run verifies function names match.
	TrainSrc string
	// CountTailStores is forwarded to core.Config (default true unless
	// PaperProfitFormula is set).
	PaperProfitFormula bool
	// Interp bounds the training, measurement, and differential-check
	// runs: MaxSteps caps executed instructions and Timeout caps
	// wall-clock time, so a runaway program fails the run instead of
	// hanging the harness.
	Interp interp.Options
	// SkipMeasurement skips the before/after interpreter runs (the
	// caller only wants the transformed program and static counts).
	SkipMeasurement bool
	// Check selects how much self-checking runs during transformation:
	// stage-boundary IR verification (CheckBoundaries) and the
	// whole-program semantic differential check (CheckParanoid).
	Check CheckLevel
	// FailFast disables graceful degradation: the first stage failure
	// aborts the run with its *StageError instead of rolling the
	// affected function back and continuing.
	FailFast bool
	// Faults, when non-nil, injects deterministic failures at stage
	// boundaries (see internal/faults); used to test the recovery
	// paths and exposed through the tools' -fault flag.
	Faults *faults.Injector
	// AnalysisCache optionally supplies the analysis cache the run
	// memoizes CFG analyses in (tests pass their own to inspect build
	// counts). Nil means the run creates one.
	AnalysisCache *analysis.Cache
	// Workers bounds how many functions are transformed concurrently.
	// Each worker runs the full per-function chain (SSA build →
	// promote → destruct → verify) behind the usual isolation and
	// rollback barrier; program-level effects (function swaps, stats,
	// degradations) are serialized and canonicalized so the Outcome is
	// identical for every worker count. 0 means GOMAXPROCS; 1 keeps
	// the sequential behavior.
	Workers int
}

// StaticCounts are instruction counts of a program, the paper's static
// cost metric.
type StaticCounts struct {
	Loads  int // singleton loads
	Stores int // singleton stores
}

// Total returns loads plus stores.
func (s StaticCounts) Total() int { return s.Loads + s.Stores }

// Outcome is the result of running the pipeline on one program.
type Outcome struct {
	// Prog is the transformed (promoted, destructed) program.
	Prog *ir.Program
	// Stats accumulates promotion statistics per function. Degraded
	// functions have no entry: their transformation was rolled back.
	Stats map[string]*core.Stats
	// Pressure records the pressure-aware promotion result per function
	// when Options.PressureCap is set. Degraded functions have no entry.
	Pressure map[string]*core.PressureResult
	// Diagnostics holds the diag findings when Options.Diagnose is set.
	Diagnostics []diag.Finding
	// TotalStats sums Stats.
	TotalStats core.Stats
	// StaticBefore/StaticAfter count singleton memory operations in the
	// normalized program before and after promotion (Table 1's metric).
	StaticBefore, StaticAfter StaticCounts
	// Before/After are the measurement runs (nil when SkipMeasurement).
	Before, After *interp.Result
	// Profile is the training profile the promoter consumed.
	Profile *profile.Profile
	// Degraded lists functions compiled without promotion because a
	// stage failed on them, in canonical order (program declaration
	// order, then stage order); each entry carries the absorbed
	// failure. A function appears at most once, whichever code path
	// (transformation, rescue, differential bisect) degraded it.
	Degraded []Degradation
	// Timings records the measured wall time of every stage execution,
	// in canonical order (stage order, then program declaration order).
	// Durations naturally vary run to run; Report excludes them.
	Timings []StageTiming
}

// DegradedFuncs returns the names of degraded functions, in order.
func (o *Outcome) DegradedFuncs() []string {
	names := make([]string, len(o.Degraded))
	for i, d := range o.Degraded {
		names[i] = d.Func
	}
	return names
}

// runner carries one Run invocation's state.
type runner struct {
	opts Options
	out  *Outcome
	// mu guards the shared run state (out, snapshots, degraded, the
	// program's function registry) while the per-function transform
	// chains execute on the worker pool. Outside that phase the run is
	// single-goroutine and the lock is uncontended.
	mu sync.Mutex
	// snapshots holds each function's pre-transformation clone, used to
	// roll a failing function back and to bisect differential-check
	// mismatches down to one function.
	snapshots map[string]*ir.Function
	degraded  map[string]bool
	// cache memoizes per-function CFG analyses across stages, keyed on
	// the functions' CFG version counters. Never nil during a run.
	cache *analysis.Cache
}

// interpOptions returns the run's interpreter options with the run's
// analysis cache threaded in as the bytecode cache, so training,
// measurement, the differential check and bisect share one compile per
// function version (the cache revalidates per run, so stage-boundary
// rewrites recompile safely).
func (r *runner) interpOptions() interp.Options {
	popts := r.opts.Interp
	if popts.Code == nil {
		popts.Code = r.cache
	}
	return popts
}

// Run executes the full pipeline on mini-C source text. Options are
// validated up front: an out-of-range field returns a typed
// *OptionError before any compilation happens.
func Run(src string, opts Options) (*Outcome, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	r := &runner{
		opts:      opts,
		out:       &Outcome{Stats: make(map[string]*core.Stats)},
		snapshots: make(map[string]*ir.Function),
		degraded:  make(map[string]bool),
	}
	if opts.PressureCap > 0 {
		r.out.Pressure = make(map[string]*core.PressureResult)
	}
	r.cache = opts.AnalysisCache
	if r.cache == nil {
		r.cache = analysis.New()
	}
	if opts.Check >= CheckParanoid {
		r.cache.Paranoid = true
	}

	// Baseline program: compiled, analyzed, normalized — not promoted.
	before, beforeForests, err := r.frontend(src)
	if err != nil {
		return nil, err
	}
	r.out.StaticBefore = countStatic(before)

	// Opt-in static diagnostics, on the baseline program: the rules
	// clone what they need, so the differential check's reference is
	// untouched.
	if opts.Diagnose {
		if err := r.runStage(StageDiagnose, "", nil, func() error {
			ds, derr := diag.AnalyzeProgram(before, diag.Options{})
			if derr != nil {
				return derr
			}
			r.out.Diagnostics = ds
			return nil
		}); err != nil {
			return nil, err
		}
	}

	// Training profile (on the unpromoted program, or on a separate
	// training-input variant when TrainSrc is set).
	prof, err := r.trainProfile(before, beforeForests)
	if err != nil {
		return nil, err
	}
	r.out.Profile = prof

	// Measurement of the unpromoted program.
	if !opts.SkipMeasurement {
		res, err := r.measure(StageMeasureBefore, before)
		if err != nil {
			return nil, err
		}
		r.out.Before = res
	}

	// Promoted program: fresh compile, then transform, function by
	// function, each behind its own isolation and rollback boundary.
	after, forests, err := r.frontend(src)
	if err != nil {
		return nil, err
	}
	if err := r.transformAll(after, forests, prof); err != nil {
		return nil, err
	}
	r.out.Prog = after

	if !opts.SkipMeasurement {
		res, err := r.measure(StageMeasureAfter, after)
		if err != nil {
			// A promoted program that no longer runs is a miscompile:
			// try to rescue the run by degrading the culprit function.
			if rerr := r.rescueAfter(after, err); rerr != nil {
				return nil, rerr
			}
		} else {
			r.out.After = res
		}
	}

	if opts.Check >= CheckParanoid {
		if err := r.differential(before, after); err != nil {
			return nil, err
		}
	}

	r.out.StaticAfter = countStatic(after)
	r.finish(after)
	return r.out, nil
}

// frontend compiles and prepares a program up to (but excluding) SSA,
// one isolated stage per phase. Compile and alias failures abort the
// run; a per-function normalize failure degrades that function (its
// forest stays nil and promotion is skipped).
func (r *runner) frontend(src string) (*ir.Program, map[string]*cfg.Forest, error) {
	var prog *ir.Program
	if err := r.runStage(StageCompile, "", nil, func() error {
		p, err := compileInput(r.opts.Lang, src)
		prog = p
		return err
	}); err != nil {
		return nil, nil, err
	}
	if err := r.runStage(StageAlias, "", func() string { return prog.String() }, func() error {
		return alias.Analyze(prog)
	}); err != nil {
		return nil, nil, err
	}
	forests := make(map[string]*cfg.Forest, len(prog.Funcs))
	for _, f := range prog.Funcs {
		f := f
		snap := f.Clone()
		err := r.runStage(StageNormalize, f.Name, func() string { return f.String() }, func() error {
			forest, err := cfg.Normalize(f)
			if err != nil {
				return err
			}
			if r.opts.Check >= CheckBoundaries {
				if verr := f.Verify(ir.VerifyCFG); verr != nil {
					return fmt.Errorf("post-normalize verify: %w", verr)
				}
			}
			forests[f.Name] = forest
			// Normalize just built this forest at the function's current
			// CFG version; seed the cache so the estimate and promote
			// paths never rebuild it.
			r.cache.PutIntervals(f, forest)
			return nil
		})
		if err != nil {
			if r.opts.FailFast {
				return nil, nil, err
			}
			prog.ReplaceFunction(snap)
			forests[f.Name] = nil
			r.recordDegradation(f.Name, StageNormalize, err)
		}
	}
	return prog, forests, nil
}

// trainProfile acquires the promotion profile behind the train stage's
// isolation boundary.
func (r *runner) trainProfile(before *ir.Program, forests map[string]*cfg.Forest) (*profile.Profile, error) {
	prof := profile.NewProfile()
	err := r.runStage(StageTrain, "", nil, func() error {
		switch {
		case r.opts.StaticProfile:
			p, err := estimateAll(before, forests)
			if err != nil {
				return err
			}
			prof = p
		case r.opts.TrainSrc != "":
			train, _, err := plainFrontend(r.opts.Lang, r.opts.TrainSrc)
			if err != nil {
				return fmt.Errorf("training source: %w", err)
			}
			for _, f := range before.Funcs {
				if train.Func(f.Name) == nil {
					return fmt.Errorf("training source lacks function %s", f.Name)
				}
			}
			popts := r.interpOptions()
			popts.CollectProfile = true
			res, err := interp.Run(train, popts)
			if err != nil {
				return fmt.Errorf("training run: %w", err)
			}
			prof = res.Profile
		default:
			popts := r.interpOptions()
			popts.CollectProfile = true
			res, err := interp.Run(before, popts)
			if err != nil {
				return fmt.Errorf("training run: %w", err)
			}
			prof = res.Profile
		}
		return nil
	})
	return prof, err
}

// measure interprets prog behind the named stage's isolation boundary.
func (r *runner) measure(stage string, prog *ir.Program) (*interp.Result, error) {
	var res *interp.Result
	err := r.runStage(stage, "", nil, func() error {
		rr, err := interp.Run(prog, r.interpOptions())
		res = rr
		return err
	})
	return res, err
}

// transformStep is one per-function stage of the promotion chain.
type transformStep struct {
	name string
	body func() error
	// inSSA says the function is in SSA form after this step, which
	// selects the boundary verifier (dominance vs. plain CFG).
	inSSA bool
}

// transformFunc runs the per-function transformation chain for f. Any
// stage failure (including a boundary-check failure) rolls f back to
// its pre-transformation snapshot and records a Degradation, unless
// FailFast is set, in which case the *StageError is returned.
func (r *runner) transformFunc(prog *ir.Program, f *ir.Function, forest *cfg.Forest, prof *profile.Profile) error {
	r.mu.Lock()
	if r.degraded[f.Name] {
		r.mu.Unlock()
		return nil // degraded at normalize; already in known-good state
	}
	snap := f.Clone()
	r.snapshots[f.Name] = snap
	r.mu.Unlock()
	fp := prof.ForFunc(f.Name)

	var stats *core.Stats
	var chain []transformStep
	switch r.opts.Algorithm {
	case AlgSSA:
		chain = append(chain, transformStep{StageSSABuild, func() error {
			cfg.RemoveUnreachable(f)
			return ssa.BuildWith(f, r.cache.Dom(f), r.cache.DF(f))
		}, true})
		if r.opts.PreMemOpts {
			chain = append(chain, transformStep{StageMemOpts, func() error {
				opt.ForwardStoresWith(f, r.cache.Dom(f))
				opt.DeadStoreElim(f)
				opt.Cleanup(f)
				return nil
			}, true})
		}
		chain = append(chain, transformStep{StagePromote, func() error {
			scope := core.ScopeIntervals
			if r.opts.WholeFunctionScope {
				scope = core.ScopeWholeFunction
			}
			ccfg := core.Config{
				Profile:         fp,
				Scope:           scope,
				CountTailStores: !r.opts.PaperProfitFormula,
				MaxPromotedWebs: r.opts.MaxPromotedWebs,
				Dom:             r.cache.Dom(f),
				DF:              r.cache.DF(f),
			}
			if r.opts.PressureCap > 0 {
				// The cap search seeds its budgets from the
				// pre-promotion liveness; hand it the cache's copy
				// (keyed on version + instruction fingerprint) so
				// repeated analyses of the same form are hits.
				pres, err := core.PromoteUnderPressureWith(f, forest, ccfg, r.opts.PressureCap, r.cache.Liveness(f))
				if err != nil {
					return err
				}
				stats = pres.Stats
				r.mu.Lock()
				r.out.Pressure[f.Name] = pres
				r.mu.Unlock()
				return nil
			}
			s, err := core.PromoteFunction(f, forest, ccfg)
			stats = s
			return err
		}, true})
		chain = append(chain, transformStep{StageDestruct, func() error {
			ssa.Destruct(f)
			return nil
		}, false})
	case AlgMemOpt:
		chain = append(chain, transformStep{StageSSABuild, func() error {
			cfg.RemoveUnreachable(f)
			return ssa.BuildWith(f, r.cache.Dom(f), r.cache.DF(f))
		}, true})
		chain = append(chain, transformStep{StageMemOpts, func() error {
			opt.ForwardStoresWith(f, r.cache.Dom(f))
			opt.DeadStoreElim(f)
			opt.Cleanup(f)
			return nil
		}, true})
		chain = append(chain, transformStep{StageDestruct, func() error {
			ssa.Destruct(f)
			return nil
		}, false})
	case AlgBaseline:
		chain = append(chain, transformStep{StagePromote, func() error {
			bs := baseline.PromoteFunction(f, forest)
			stats = &core.Stats{
				WebsConsidered: bs.VarsConsidered,
				WebsPromoted:   bs.VarsPromoted,
				LoadsReplaced:  bs.LoadsReplaced,
				StoresDeleted:  bs.StoresDeleted,
				LoadsInserted:  bs.LoadsInserted,
				StoresInserted: bs.StoresInserted,
			}
			return nil
		}, false})
	case AlgNone:
		// control: nothing to transform, but the verify stage below
		// still runs, preserving the isolation contract.
	}

	for _, st := range chain {
		st := st
		err := r.runStage(st.name, f.Name, func() string { return f.String() }, func() error {
			if err := st.body(); err != nil {
				return err
			}
			return r.boundaryCheck(f, st.inSSA)
		})
		if err != nil {
			return r.degrade(prog, f, snap, st.name, err)
		}
	}

	// Final structural verification — always on, whatever the check
	// level (the seed pipeline's single verify call lives on here).
	if err := r.runStage(StageVerify, f.Name, func() string { return f.String() }, func() error {
		return f.Verify(ir.VerifyCFG)
	}); err != nil {
		return r.degrade(prog, f, snap, StageVerify, err)
	}

	if stats != nil {
		r.mu.Lock()
		r.out.Stats[f.Name] = stats
		r.mu.Unlock()
	}
	return nil
}

// boundaryCheck re-verifies f after a stage when the check level asks
// for it: full SSA dominance discipline while in SSA form, structural
// CFG invariants otherwise.
func (r *runner) boundaryCheck(f *ir.Function, inSSA bool) error {
	if r.opts.Check < CheckBoundaries {
		return nil
	}
	if inSSA {
		if err := ssa.VerifyDominanceWith(f, r.cache.Dom(f)); err != nil {
			return fmt.Errorf("boundary verify (ssa): %w", err)
		}
		return nil
	}
	if err := f.Verify(ir.VerifyCFG); err != nil {
		return fmt.Errorf("boundary verify (cfg): %w", err)
	}
	return nil
}

// degrade rolls f back to snap inside prog and records the absorbed
// failure, or returns it when FailFast is set. The rollback and the
// bookkeeping run under the runner's lock: ReplaceFunction mutates the
// program's shared function registry, which concurrent workers may be
// swapping other functions into.
func (r *runner) degrade(prog *ir.Program, f *ir.Function, snap *ir.Function, stage string, err error) error {
	if r.opts.FailFast {
		return err
	}
	r.mu.Lock()
	prog.ReplaceFunction(snap)
	r.snapshots[f.Name] = snap
	delete(r.out.Stats, f.Name)
	delete(r.out.Pressure, f.Name)
	r.mu.Unlock()
	// The function object just left the program; drop its analyses so a
	// recycled pointer can never alias a stale entry.
	r.cache.Invalidate(f)
	r.recordDegradation(f.Name, stage, err)
	return nil
}

// recordDegradation appends one Degradation, deduplicating on function
// name — the baseline and promoted compiles hit the same deterministic
// failure twice, and a function rescued by the differential bisect must
// not be double-counted with its transformation-time failure. finish
// re-sorts the surviving entries into canonical order.
func (r *runner) recordDegradation(fn, stage string, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, d := range r.out.Degraded {
		if d.Func == fn {
			return
		}
	}
	se, ok := err.(*StageError)
	if !ok {
		se = &StageError{Stage: stage, Func: fn, Err: err}
	}
	r.degraded[fn] = true
	r.out.Degraded = append(r.out.Degraded, Degradation{Func: fn, Stage: stage, Err: se})
}

// recomputeTotals rebuilds TotalStats from the per-function map (stats
// of degraded functions have been dropped by then).
func (r *runner) recomputeTotals() {
	r.out.TotalStats = core.Stats{}
	for _, s := range r.out.Stats {
		r.out.TotalStats.Add(*s)
	}
}

// differential is the paranoid semantic check: the baseline and
// transformed programs must print the same output, return the same
// value, and leave identical global memory. On a mismatch the pipeline
// bisects — it retries with one function at a time rolled back to its
// unpromoted snapshot, and if a single rollback restores equivalence,
// that function is degraded and compilation succeeds.
func (r *runner) differential(before, after *ir.Program) error {
	return r.runStage(StageDifferential, "", func() string { return after.String() }, func() error {
		resB := r.out.Before
		if resB == nil {
			rb, err := interp.Run(before, r.interpOptions())
			if err != nil {
				return fmt.Errorf("baseline run: %w", err)
			}
			resB = rb
		}
		resA := r.out.After
		if resA == nil {
			ra, err := interp.Run(after, r.interpOptions())
			if err != nil {
				if r.bisect(after, resB) {
					return nil
				}
				return fmt.Errorf("transformed run: %w", err)
			}
			resA = ra
		}
		diff := compareResults(resB, resA)
		if diff == "" {
			// The primary interpreter agrees; paranoid mode also runs the
			// transformed program on the other execution path (the
			// reference interpreter behind the bytecode engine, or the
			// engine behind the reference) and holds it to the same
			// baseline, so a miscompile that only one path exposes still
			// fails the check.
			popts := r.interpOptions()
			popts.Legacy = !popts.Legacy
			alt := "legacy"
			if !popts.Legacy {
				alt = "bytecode"
			}
			ra, err := interp.Run(after, popts)
			if err != nil {
				return fmt.Errorf("transformed run (%s path): %w", alt, err)
			}
			if d := compareResults(resB, ra); d != "" {
				return fmt.Errorf("semantic differential check failed on %s path: %s", alt, d)
			}
			return nil
		}
		if r.bisect(after, resB) {
			return nil
		}
		return fmt.Errorf("semantic differential check failed: %s", diff)
	})
}

// rescueAfter handles a failing measurement run of the transformed
// program by bisecting for a degradable culprit function. It returns
// nil when the rescue succeeded (out.After is then the rescued run).
func (r *runner) rescueAfter(after *ir.Program, err error) error {
	if r.opts.FailFast || r.out.Before == nil {
		return err
	}
	if r.bisect(after, r.out.Before) {
		return nil
	}
	return err
}

// bisect tries rolling transformed functions back one at a time until
// the program's behavior matches want. On success the culprit stays
// rolled back, is recorded as degraded, and out.After is refreshed.
func (r *runner) bisect(after *ir.Program, want *interp.Result) bool {
	if r.opts.FailFast {
		return false
	}
	for _, f := range after.Funcs {
		snap := r.snapshots[f.Name]
		if snap == nil || r.degraded[f.Name] {
			continue
		}
		cur := after.Func(f.Name)
		if cur == snap {
			continue
		}
		after.ReplaceFunction(snap)
		res, err := interp.Run(after, r.interpOptions())
		if err == nil && compareResults(want, res) == "" {
			delete(r.out.Stats, f.Name)
			delete(r.out.Pressure, f.Name)
			r.recordDegradation(f.Name, StageDifferential, fmt.Errorf(
				"transformed program diverged from baseline; rolling back %s restored equivalence", f.Name))
			if !r.opts.SkipMeasurement {
				r.out.After = res
			}
			return true
		}
		after.ReplaceFunction(cur) // not the culprit; restore
	}
	return false
}

// compareResults reports the first observable difference between two
// runs, or "" when they are semantically identical.
func compareResults(a, b *interp.Result) string {
	if len(a.Output) != len(b.Output) {
		return fmt.Sprintf("output length %d vs %d", len(a.Output), len(b.Output))
	}
	for i := range a.Output {
		if a.Output[i] != b.Output[i] {
			return fmt.Sprintf("output[%d] = %d vs %d", i, a.Output[i], b.Output[i])
		}
	}
	if a.ReturnValue != b.ReturnValue {
		return fmt.Sprintf("return value %d vs %d", a.ReturnValue, b.ReturnValue)
	}
	// Walk globals in sorted order so a multi-global mismatch always
	// reports the same cell — map iteration order must not leak into
	// differential messages or reports.
	names := make([]string, 0, len(a.Globals))
	for name := range a.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		img := a.Globals[name]
		other := b.Globals[name]
		if len(img) != len(other) {
			return fmt.Sprintf("global %s size %d vs %d", name, len(img), len(other))
		}
		for i := range img {
			if img[i] != other[i] {
				return fmt.Sprintf("global %s[%d] = %d vs %d", name, i, img[i], other[i])
			}
		}
	}
	return ""
}

// compileInput dispatches to the frontend selected by lang: the mini-C
// compiler for "" or "mc", the textual-IR importer for "ll". Validate
// has already rejected anything else.
func compileInput(lang, src string) (*ir.Program, error) {
	if lang == irimport.LangIR {
		return irimport.Compile(src)
	}
	return source.Compile(src)
}

// plainFrontend compiles and prepares a program without stage isolation
// (used for the training-input variant, whose failures are reported as
// train-stage errors by the caller).
func plainFrontend(lang, src string) (*ir.Program, map[string]*cfg.Forest, error) {
	prog, err := compileInput(lang, src)
	if err != nil {
		return nil, nil, err
	}
	if err := alias.Analyze(prog); err != nil {
		return nil, nil, err
	}
	forests := make(map[string]*cfg.Forest, len(prog.Funcs))
	for _, f := range prog.Funcs {
		forest, err := cfg.Normalize(f)
		if err != nil {
			return nil, nil, err
		}
		forests[f.Name] = forest
	}
	return prog, forests, nil
}

func estimateAll(prog *ir.Program, forests map[string]*cfg.Forest) (*profile.Profile, error) {
	p := profile.NewProfile()
	for _, f := range prog.Funcs {
		forest := forests[f.Name]
		if forest == nil {
			// Degraded at normalize (or no forest supplied): estimate on a
			// freshly built interval tree.
			forest = cfg.BuildIntervals(f)
		}
		p.Funcs[f.Name] = profile.Estimate(f, forest)
	}
	return p, nil
}

// countStatic counts singleton loads and stores in a program.
func countStatic(prog *ir.Program) StaticCounts {
	var c StaticCounts
	for _, f := range prog.Funcs {
		for _, b := range f.Blocks {
			for _, in := range b.Instrs {
				switch in.Op {
				case ir.OpLoad:
					c.Loads++
				case ir.OpStore:
					c.Stores++
				}
			}
		}
	}
	return c
}
