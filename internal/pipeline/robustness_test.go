package pipeline_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/pipeline"
)

// multiFunc is a three-function program: main's output depends on both
// helpers, so a miscompiled helper is observable.
const multiFunc = `
int x;
int y;
void bumpx() { int i; for (i = 0; i < 40; i++) x++; }
void bumpy() { int i; for (i = 0; i < 30; i++) y += 2; }
void main() {
	bumpx();
	bumpy();
	print(x);
	print(y);
}
`

// runNoPanic runs the pipeline and converts an escaped panic into a
// test failure; it returns the outcome and error otherwise.
func runNoPanic(t *testing.T, src string, opts pipeline.Options) (out *pipeline.Outcome, err error) {
	t.Helper()
	defer func() {
		if rec := recover(); rec != nil {
			t.Fatalf("pipeline.Run panicked: %v", rec)
		}
	}()
	return pipeline.Run(src, opts)
}

// TestFaultInjectionEveryStage drives a fault (both error and panic
// mode) through every stage's injection point and asserts the
// acceptance contract: Run never panics, and each failure either
// surfaces as a structured *StageError or degrades the affected
// function and is reported in the outcome.
func TestFaultInjectionEveryStage(t *testing.T) {
	for _, stage := range pipeline.Stages() {
		for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
			t.Run(stage+"/"+mode.String(), func(t *testing.T) {
				inj := faults.New(faults.Plan{Stage: stage, Mode: mode})
				opts := pipeline.Options{
					// Reach every stage: memopts needs PreMemOpts, the
					// differential stage needs paranoid checking, and
					// the measure stages need measurement enabled.
					// measure-before also needs a profile that is not a
					// training run of the same program, which would
					// double as the baseline measurement.
					PreMemOpts:    true,
					Check:         pipeline.CheckParanoid,
					Faults:        inj,
					StaticProfile: stage == pipeline.StageMeasureBefore,
				}
				out, err := runNoPanic(t, multiFunc, opts)
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
					if mode == faults.ModePanic {
						if se.Recovered == nil || se.Stack == "" {
							t.Fatalf("panic StageError lacks recovered value or stack: %+v", se)
						}
					}
				case out != nil && len(out.Degraded) > 0:
					d := out.Degraded[0]
					if d.Err == nil {
						t.Fatalf("degradation lacks structured error: %+v", d)
					}
					// The degraded program must still run correctly.
					if out.Before != nil && out.After != nil &&
						!reflect.DeepEqual(out.Before.Output, out.After.Output) {
						t.Fatalf("degraded program changed output: %v vs %v",
							out.Before.Output, out.After.Output)
					}
				default:
					t.Fatalf("fault at %s vanished: no error, no degradation", stage)
				}
			})
		}
	}
}

// TestFaultInjectionFailFast asserts that FailFast converts every
// per-function degradation into a returned StageError instead.
func TestFaultInjectionFailFast(t *testing.T) {
	for _, stage := range []string{
		pipeline.StageNormalize, pipeline.StageSSABuild, pipeline.StagePromote,
		pipeline.StageDestruct, pipeline.StageVerify,
	} {
		inj := faults.New(faults.Plan{Stage: stage, Mode: faults.ModePanic})
		_, err := runNoPanic(t, multiFunc, pipeline.Options{Faults: inj, FailFast: true})
		var se *pipeline.StageError
		if !errors.As(err, &se) {
			t.Fatalf("stage %s with FailFast: err = %v, want StageError", stage, err)
		}
		if se.Stage != stage || se.Func == "" {
			t.Fatalf("stage %s: StageError site = %s/%s", stage, se.Stage, se.Func)
		}
	}
}

// TestDegradationPath is the satellite acceptance test: break promotion
// of exactly one function in a multi-function program and require that
// the program still compiles, runs correctly, and reports exactly that
// function as degraded — with the other functions still promoted.
func TestDegradationPath(t *testing.T) {
	for _, mode := range []faults.Mode{faults.ModeError, faults.ModePanic} {
		t.Run(mode.String(), func(t *testing.T) {
			inj := faults.New(faults.Plan{Stage: pipeline.StagePromote, Func: "bumpx", Mode: mode})
			out, err := runNoPanic(t, multiFunc, pipeline.Options{
				Check:  pipeline.CheckParanoid,
				Faults: inj,
			})
			if err != nil {
				t.Fatalf("degradation did not absorb the fault: %v", err)
			}
			if got := out.DegradedFuncs(); len(got) != 1 || got[0] != "bumpx" {
				t.Fatalf("DegradedFuncs() = %v, want [bumpx]", got)
			}
			if out.Degraded[0].Stage != pipeline.StagePromote {
				t.Fatalf("degradation stage = %s, want promote", out.Degraded[0].Stage)
			}
			// The program still runs and matches the baseline.
			if !reflect.DeepEqual(out.Before.Output, out.After.Output) {
				t.Fatalf("degraded program changed output: %v vs %v",
					out.Before.Output, out.After.Output)
			}
			if want := []int64{40, 60}; !reflect.DeepEqual(out.After.Output, want) {
				t.Fatalf("output = %v, want %v", out.After.Output, want)
			}
			// The degraded function keeps no promotion stats; the others
			// are still promoted.
			if out.Stats["bumpx"] != nil {
				t.Fatal("degraded function still has promotion stats")
			}
			if out.Stats["bumpy"] == nil || out.Stats["bumpy"].WebsPromoted == 0 {
				t.Fatal("healthy function lost its promotion")
			}
			// The degraded function's loop still issues memory traffic
			// (its promotion was rolled back).
			if out.After.DynMemOps() <= int64(out.Stats["bumpy"].StoresInserted) {
				t.Fatalf("suspiciously few dynamic memory ops: %d", out.After.DynMemOps())
			}
		})
	}
}

// TestStageErrorDetail checks the repro payload: a panic's StageError
// carries the stack and an IR snapshot of the function being
// transformed.
func TestStageErrorDetail(t *testing.T) {
	inj := faults.New(faults.Plan{Stage: pipeline.StagePromote, Mode: faults.ModePanic})
	_, err := runNoPanic(t, multiFunc, pipeline.Options{Faults: inj, FailFast: true})
	var se *pipeline.StageError
	if !errors.As(err, &se) {
		t.Fatalf("err = %v, want StageError", err)
	}
	if se.IR == "" || !strings.Contains(se.IR, "func ") {
		t.Fatalf("StageError lacks IR snapshot: %q", se.IR)
	}
	detail := se.Detail()
	for _, want := range []string{"stage promote", "stack:", "IR at failure:"} {
		if !strings.Contains(detail, want) {
			t.Fatalf("Detail() missing %q:\n%s", want, detail)
		}
	}
	if !strings.Contains(se.Error(), "panicked") {
		t.Fatalf("Error() = %q, want panic mention", se.Error())
	}
}

// TestCheckLevelsCleanRun: all check levels pass on a healthy program,
// for all four algorithms, with identical results.
func TestCheckLevelsCleanRun(t *testing.T) {
	for _, alg := range []pipeline.Algorithm{
		pipeline.AlgSSA, pipeline.AlgBaseline, pipeline.AlgMemOpt, pipeline.AlgNone,
	} {
		for _, lvl := range []pipeline.CheckLevel{
			pipeline.CheckOff, pipeline.CheckBoundaries, pipeline.CheckParanoid,
		} {
			out, err := pipeline.Run(multiFunc, pipeline.Options{Algorithm: alg, Check: lvl})
			if err != nil {
				t.Fatalf("%v/%v: %v", alg, lvl, err)
			}
			if len(out.Degraded) != 0 {
				t.Fatalf("%v/%v: unexpected degradations %v", alg, lvl, out.Degraded)
			}
			if !reflect.DeepEqual(out.Before.Output, out.After.Output) {
				t.Fatalf("%v/%v: output changed", alg, lvl)
			}
		}
	}
}

func TestParseCheckLevel(t *testing.T) {
	for s, want := range map[string]pipeline.CheckLevel{
		"off": pipeline.CheckOff, "boundaries": pipeline.CheckBoundaries, "paranoid": pipeline.CheckParanoid,
	} {
		got, err := pipeline.ParseCheckLevel(s)
		if err != nil || got != want {
			t.Errorf("ParseCheckLevel(%q) = %v, %v", s, got, err)
		}
		if got.String() != s {
			t.Errorf("%v.String() = %q, want %q", got, got.String(), s)
		}
	}
	if _, err := pipeline.ParseCheckLevel("strict"); err == nil {
		t.Error("ParseCheckLevel accepted unknown level")
	}
}

// TestSeededFaultSweep sweeps seeds through the seeded injector over
// all stages — the reproducible shotgun the fuzz targets build on.
func TestSeededFaultSweep(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		inj := faults.NewSeeded(seed, pipeline.Stages())
		out, err := runNoPanic(t, multiFunc, pipeline.Options{
			PreMemOpts: true,
			Check:      pipeline.CheckParanoid,
			Faults:     inj,
		})
		if err == nil && out != nil && len(out.Degraded) == 0 && inj.Fired() > 0 {
			t.Fatalf("seed %d: fault fired but left no trace", seed)
		}
		if err != nil {
			var se *pipeline.StageError
			if !errors.As(err, &se) {
				t.Fatalf("seed %d: non-structured error %v", seed, err)
			}
		}
	}
}
