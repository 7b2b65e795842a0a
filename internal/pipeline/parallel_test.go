package pipeline_test

import (
	"errors"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// manyFuncs returns a generated program with enough helper functions to
// keep a worker pool busy (the default generator config plus extra
// helpers and globals).
func manyFuncs(t *testing.T, seed int64) string {
	t.Helper()
	cfg := workload.DefaultGenConfig(seed)
	cfg.NumHelpers = 8
	cfg.NumGlobals = 8
	return workload.Generate(cfg)
}

// runReport runs the pipeline and returns the canonical outcome report
// plus the printed transformed program.
func runReport(t *testing.T, src string, opts pipeline.Options) (*pipeline.Outcome, string, string) {
	t.Helper()
	out, err := pipeline.Run(src, opts)
	if err != nil {
		t.Fatalf("Workers=%d: %v", opts.Workers, err)
	}
	return out, out.Report(), out.Prog.String()
}

// TestParallelDeterminism is the tentpole acceptance test: Run with
// Workers:1 and Workers:N must produce byte-identical Outcome reports
// and byte-identical transformed IR on multi-function programs.
func TestParallelDeterminism(t *testing.T) {
	n := runtime.GOMAXPROCS(0)
	if n < 2 {
		n = 4
	}
	for seed := int64(0); seed < 4; seed++ {
		src := manyFuncs(t, seed)
		seqOut, seqReport, seqIR := runReport(t, src, pipeline.Options{Workers: 1})
		for _, workers := range []int{0, 2, n, 2 * n} {
			parOut, parReport, parIR := runReport(t, src, pipeline.Options{Workers: workers})
			if parReport != seqReport {
				t.Fatalf("seed %d: Workers=%d report differs from Workers=1:\n--- seq ---\n%s\n--- par ---\n%s",
					seed, workers, seqReport, parReport)
			}
			if parIR != seqIR {
				t.Fatalf("seed %d: Workers=%d produced different transformed IR", seed, workers)
			}
			if !reflect.DeepEqual(seqOut.TotalStats, parOut.TotalStats) {
				t.Fatalf("seed %d: Workers=%d TotalStats %+v, want %+v",
					seed, workers, parOut.TotalStats, seqOut.TotalStats)
			}
		}
	}
}

// TestParallelDeterminismSuite repeats the byte-identity check on the
// real workload suite with full measurement and paranoid checking.
func TestParallelDeterminismSuite(t *testing.T) {
	for _, w := range workload.Suite() {
		t.Run(w.Name, func(t *testing.T) {
			opts := pipeline.Options{Check: pipeline.CheckParanoid}
			opts.Workers = 1
			_, seqReport, seqIR := runReport(t, w.Src, opts)
			opts.Workers = 4
			_, parReport, parIR := runReport(t, w.Src, opts)
			if parReport != seqReport || parIR != seqIR {
				t.Fatalf("Workers=4 diverged from Workers=1 on %s", w.Name)
			}
		})
	}
}

// TestParallelFaultIsolation proves degradation still isolates to the
// faulted function under the worker pool: breaking one function leaves
// exactly that function degraded, the others promoted, and the program
// output equal to the baseline — for both fault modes, at several
// worker counts.
func TestParallelFaultIsolation(t *testing.T) {
	for _, workers := range []int{2, 4, 8} {
		for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
			inj := faults.New(faults.Plan{Stage: pipeline.StagePromote, Func: "bumpx", Mode: mode})
			out, err := pipeline.Run(multiFunc, pipeline.Options{
				Workers: workers,
				Check:   pipeline.CheckParanoid,
				Faults:  inj,
			})
			if err != nil {
				t.Fatalf("workers=%d mode=%v: fault not absorbed: %v", workers, mode, err)
			}
			if got := out.DegradedFuncs(); len(got) != 1 || got[0] != "bumpx" {
				t.Fatalf("workers=%d mode=%v: DegradedFuncs() = %v, want [bumpx]", workers, mode, got)
			}
			if !reflect.DeepEqual(out.Before.Output, out.After.Output) {
				t.Fatalf("workers=%d mode=%v: degraded program changed output", workers, mode)
			}
			if out.Stats["bumpx"] != nil {
				t.Fatalf("workers=%d mode=%v: degraded function kept stats", workers, mode)
			}
			if out.Stats["bumpy"] == nil || out.Stats["bumpy"].WebsPromoted == 0 {
				t.Fatalf("workers=%d mode=%v: healthy sibling lost its promotion", workers, mode)
			}
		}
	}
}

// TestParallelFaultSweepEveryStage drives a fault through every stage
// under the pool: Run must never panic and every fault must either
// surface as a StageError or leave a degradation trace — the serial
// sweep's contract, now with Workers=4. As there, measure-before runs
// with the static profile, since the default training run doubles as
// the baseline measurement.
func TestParallelFaultSweepEveryStage(t *testing.T) {
	for _, stage := range pipeline.Stages() {
		for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
			t.Run(stage+"/"+mode.String(), func(t *testing.T) {
				inj := faults.New(faults.Plan{Stage: stage, Mode: mode})
				out, err := runNoPanic(t, multiFunc, pipeline.Options{
					Workers:       4,
					PreMemOpts:    true,
					Check:         pipeline.CheckParanoid,
					Faults:        inj,
					StaticProfile: stage == pipeline.StageMeasureBefore,
				})
				if inj.Fired() == 0 {
					t.Fatalf("stage %s was never reached: sites %v", stage, inj.Sites())
				}
				switch {
				case err != nil:
					var se *pipeline.StageError
					if !errors.As(err, &se) {
						t.Fatalf("error is not a StageError: %v", err)
					}
					if se.Stage != stage {
						t.Fatalf("StageError names stage %q, want %q", se.Stage, stage)
					}
				case out != nil && len(out.Degraded) > 0:
					if out.Before != nil && out.After != nil &&
						!reflect.DeepEqual(out.Before.Output, out.After.Output) {
						t.Fatalf("degraded program changed output")
					}
				default:
					t.Fatalf("fault at %s vanished: no error, no degradation", stage)
				}
			})
		}
	}
}

// TestParallelFailFastDeterministic: with FailFast, the pool must
// return the same error the sequential run hits — the failure of the
// earliest function in declaration order, not of whichever worker
// finished first.
func TestParallelFailFastDeterministic(t *testing.T) {
	inj := func() *faults.Injector {
		return faults.New(
			faults.Plan{Stage: pipeline.StagePromote, Func: "bumpx", Mode: faults.ModeError},
			faults.Plan{Stage: pipeline.StagePromote, Func: "bumpy", Mode: faults.ModeError},
		)
	}
	_, seqErr := pipeline.Run(multiFunc, pipeline.Options{Workers: 1, FailFast: true, Faults: inj()})
	var seqSE *pipeline.StageError
	if !errors.As(seqErr, &seqSE) {
		t.Fatalf("sequential FailFast: err = %v, want StageError", seqErr)
	}
	for i := 0; i < 8; i++ {
		_, parErr := pipeline.Run(multiFunc, pipeline.Options{Workers: 4, FailFast: true, Faults: inj()})
		var parSE *pipeline.StageError
		if !errors.As(parErr, &parSE) {
			t.Fatalf("parallel FailFast: err = %v, want StageError", parErr)
		}
		if parSE.Func != seqSE.Func || parSE.Stage != seqSE.Stage {
			t.Fatalf("parallel FailFast error at %s/%s, sequential at %s/%s",
				parSE.Stage, parSE.Func, seqSE.Stage, seqSE.Func)
		}
	}
}

// TestParallelRescueAccounting: when the rescue path (a failing
// measure-after run triggering the bisect) degrades a function, the
// degradation list and totals must be identical whatever the worker
// count — the bisect always runs after the pool has drained.
func TestParallelRescueAccounting(t *testing.T) {
	run := func(workers int) *pipeline.Outcome {
		inj := faults.New(faults.Plan{Stage: pipeline.StageMeasureAfter, Mode: faults.ModeError, Count: 1})
		out, err := pipeline.Run(multiFunc, pipeline.Options{Workers: workers, Faults: inj})
		if err != nil {
			t.Fatalf("workers=%d: rescue failed: %v", workers, err)
		}
		return out
	}
	seq := run(1)
	if len(seq.DegradedFuncs()) == 0 {
		t.Fatal("rescue did not degrade any function")
	}
	for _, workers := range []int{2, 4} {
		par := run(workers)
		if !reflect.DeepEqual(par.DegradedFuncs(), seq.DegradedFuncs()) {
			t.Fatalf("workers=%d: DegradedFuncs %v, want %v", workers, par.DegradedFuncs(), seq.DegradedFuncs())
		}
		if par.Report() != seq.Report() {
			t.Fatalf("workers=%d: rescue report differs from sequential", workers)
		}
	}
}

// TestTimingsRecorded: every executed stage leaves a timing entry, in
// canonical order (stage order, then function order), so the report
// layer can aggregate per-stage wall time.
func TestTimingsRecorded(t *testing.T) {
	out, err := pipeline.Run(multiFunc, pipeline.Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Timings) == 0 {
		t.Fatal("no timings recorded")
	}
	wall := out.StageWall()
	for _, stage := range []string{
		pipeline.StageCompile, pipeline.StageTrain, pipeline.StageSSABuild,
		pipeline.StagePromote, pipeline.StageVerify, pipeline.StageMeasureAfter,
	} {
		if _, ok := wall[stage]; !ok {
			t.Errorf("stage %s has no aggregated wall time", stage)
		}
	}
	// Canonical order: stage positions must be non-decreasing.
	stagePos := make(map[string]int)
	for i, s := range pipeline.Stages() {
		stagePos[s] = i
	}
	last := -1
	for _, tm := range out.Timings {
		if p := stagePos[tm.Stage]; p < last {
			t.Fatalf("timings out of canonical order at %s/%s", tm.Stage, tm.Func)
		} else {
			last = p
		}
	}
}
