package pipeline_test

import (
	"reflect"
	"strconv"
	"testing"

	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// requireSameRun holds two measurement results to the same observable
// behavior.
func requireSameRun(t *testing.T, phase string, want, got *interp.Result) {
	t.Helper()
	if (want == nil) != (got == nil) {
		t.Fatalf("%s: one run missing (legacy %v, bytecode %v)", phase, want != nil, got != nil)
	}
	if want == nil {
		return
	}
	if !reflect.DeepEqual(want.Output, got.Output) {
		t.Errorf("%s: output differs: legacy %v bytecode %v", phase, want.Output, got.Output)
	}
	if want.ReturnValue != got.ReturnValue {
		t.Errorf("%s: return value differs: legacy %d bytecode %d", phase, want.ReturnValue, got.ReturnValue)
	}
	if want.Steps != got.Steps {
		t.Errorf("%s: steps differ: legacy %d bytecode %d", phase, want.Steps, got.Steps)
	}
	if !reflect.DeepEqual(want.OpCounts, got.OpCounts) {
		t.Errorf("%s: opcode counts differ:\nlegacy   %v\nbytecode %v", phase, want.OpCounts, got.OpCounts)
	}
	if !reflect.DeepEqual(want.Globals, got.Globals) {
		t.Errorf("%s: final global images differ", phase)
	}
}

// TestPipelineBytecodeDifferential runs the full pipeline — training
// run, SSA promotion, paranoid checking, and measurement — twice per
// program, once on the bytecode engine and once on the reference
// interpreter, and requires identical outcomes. Unlike the interp-package differential this executes
// PROMOTED code: phi-heavy, register-renamed functions the compiler
// never sees from the frontend alone, plus the degradation bookkeeping
// around them.
func TestPipelineBytecodeDifferential(t *testing.T) {
	type prog struct{ name, src string }
	var corpus []prog
	for _, w := range workload.Suite() {
		corpus = append(corpus, prog{"workload/" + w.Name, w.Src})
	}
	for seed := 0; seed < 4; seed++ {
		corpus = append(corpus, prog{
			"generated/" + strconv.Itoa(seed),
			workload.Generate(workload.DefaultGenConfig(workload.DeriveSeed(7, seed))),
		})
	}

	for _, p := range corpus {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			opts := pipeline.Options{
				Algorithm:  pipeline.AlgSSA,
				PreMemOpts: true,
				Check:      pipeline.CheckParanoid,
			}
			bc, err := pipeline.Run(p.src, opts)
			if err != nil {
				t.Fatalf("bytecode path: %v", err)
			}
			opts.Interp = interp.Options{Legacy: true}
			base, err := pipeline.Run(p.src, opts)
			if err != nil {
				t.Fatalf("legacy path: %v", err)
			}

			requireSameRun(t, "before", base.Before, bc.Before)
			requireSameRun(t, "after", base.After, bc.After)
			if !reflect.DeepEqual(base.TotalStats, bc.TotalStats) {
				t.Errorf("promotion stats differ:\nlegacy   %+v\nbytecode %+v", base.TotalStats, bc.TotalStats)
			}
			if !reflect.DeepEqual(base.StaticAfter, bc.StaticAfter) {
				t.Errorf("static counts differ: legacy %+v bytecode %+v", base.StaticAfter, bc.StaticAfter)
			}
			if !reflect.DeepEqual(base.DegradedFuncs(), bc.DegradedFuncs()) {
				t.Errorf("degradations differ: legacy %v bytecode %v", base.DegradedFuncs(), bc.DegradedFuncs())
			}
		})
	}
}
