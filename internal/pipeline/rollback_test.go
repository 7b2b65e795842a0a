package pipeline_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/workload"
)

// runFuncs runs src and returns every function's printed IR.
func runFuncs(t *testing.T, src string, opts pipeline.Options) (*pipeline.Outcome, map[string]string) {
	t.Helper()
	out, err := runNoPanic(t, src, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	funcs := make(map[string]string, len(out.Prog.Funcs))
	for _, f := range out.Prog.Funcs {
		funcs[f.Name] = f.String()
	}
	return out, funcs
}

// TestRollbackRestoresBaselineIR faults one function at each
// per-function stage and checks what the rollback left behind. A
// function degraded after normalize must print exactly as in an
// AlgNone run, and one degraded at normalize exactly as its
// pre-normalize IR from a plain compile and alias analysis (an injected
// fault fires before normalize touches the function, so that case
// checks the rebuilt copy is the function it replaces). Every other
// function must print as in a clean run, and the paranoid check, which
// runs the result on both interpreter paths, must pass.
func TestRollbackRestoresBaselineIR(t *testing.T) {
	stages := []string{
		pipeline.StageNormalize, pipeline.StageSSABuild, pipeline.StageMemOpts,
		pipeline.StagePromote, pipeline.StageDestruct, pipeline.StageVerify,
	}
	programs := []struct{ name, src string }{{"multiFunc", multiFunc}}
	for _, name := range []string{"go", "compress"} {
		w, ok := workload.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		programs = append(programs, struct{ name, src string }{name, w.Src})
	}
	base := pipeline.Options{PreMemOpts: true, Check: pipeline.CheckParanoid}
	for _, tc := range programs {
		cleanOut, clean := runFuncs(t, tc.src, base)
		// Fault the function promotion changes most: the one with the
		// most promoted webs.
		fn, most := "", 0
		for _, f := range cleanOut.Prog.Funcs {
			if s := cleanOut.Stats[f.Name]; s != nil && s.WebsPromoted > most {
				fn, most = f.Name, s.WebsPromoted
			}
		}
		none := base
		none.Algorithm = pipeline.AlgNone
		_, unpromoted := runFuncs(t, tc.src, none)
		if fn == "" || clean[fn] == unpromoted[fn] {
			t.Fatalf("%s: promotion changes no function %q; the test proves nothing", tc.name, fn)
		}
		pre, err := source.Compile(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		if err := alias.Analyze(pre); err != nil {
			t.Fatal(err)
		}
		preNormalize := pre.Func(fn).String()

		for _, stage := range stages {
			t.Run(tc.name+"/"+stage, func(t *testing.T) {
				opts := base
				opts.Faults = faults.New(faults.Plan{Stage: stage, Func: fn, Mode: faults.ModePanic})
				out, got := runFuncs(t, tc.src, opts)
				if d := out.DegradedFuncs(); len(d) != 1 || d[0] != fn || out.Degraded[0].Stage != stage {
					t.Fatalf("Degraded = %+v, want only %s at %s", out.Degraded, fn, stage)
				}
				want := unpromoted[fn]
				if stage == pipeline.StageNormalize {
					want = preNormalize
				}
				if got[fn] != want {
					t.Fatalf("rolled-back %s prints differently:\n--- want\n%s\n--- got\n%s", fn, want, got[fn])
				}
				for name, ir := range got {
					if name != fn && ir != clean[name] {
						t.Fatalf("healthy %s differs from the clean run", name)
					}
				}
			})
		}
	}
}
