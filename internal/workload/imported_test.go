package workload_test

import (
	"reflect"
	"testing"

	"repro/internal/interp"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestImportedSuiteRuns compiles every imported-IR workload through
// the full pipeline and checks promotion preserved its observables.
func TestImportedSuiteRuns(t *testing.T) {
	for _, w := range workload.ImportedSuite() {
		t.Run(w.Name, func(t *testing.T) {
			if w.Lang != irimport.LangIR {
				t.Fatalf("imported workload tagged %q, want %q", w.Lang, irimport.LangIR)
			}
			out, err := pipeline.Run(w.Src, pipeline.Options{
				Lang:   w.Lang,
				Check:  pipeline.CheckParanoid,
				Interp: interp.Options{MaxSteps: 1_000_000},
			})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			if len(out.Degraded) > 0 {
				t.Errorf("degraded: %v", out.DegradedFuncs())
			}
			if diffOut := out.Before.Output; len(diffOut) == 0 {
				t.Error("imported workload printed nothing; suite entries should be observable")
			}
			if !reflect.DeepEqual(out.Before.Output, out.After.Output) ||
				out.Before.ReturnValue != out.After.ReturnValue {
				t.Errorf("promotion changed observables: %v/%d vs %v/%d",
					out.Before.Output, out.Before.ReturnValue, out.After.Output, out.After.ReturnValue)
			}
		})
	}
}

// TestReplayCorpusMix pins the mixing contract: deterministic across
// calls and imported entries exactly at the irEvery-th positions.
func TestReplayCorpusMix(t *testing.T) {
	a, err := workload.ReplayCorpusMix(11, 20, "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := workload.ReplayCorpusMix(11, 20, "small", 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two identical ReplayCorpusMix calls diverged")
	}
	for i, w := range a {
		wantIR := (i+1)%5 == 0
		if gotIR := w.Lang == irimport.LangIR; gotIR != wantIR {
			t.Errorf("entry %d: lang %q (imported=%v), want imported=%v", i, w.Lang, gotIR, wantIR)
		}
	}

	// irEvery 0 must be plain ReplayCorpus.
	plain, err := workload.ReplayCorpusMix(11, 6, "small", 0)
	if err != nil {
		t.Fatal(err)
	}
	want, err := workload.ReplayCorpus(11, 6, "small")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain, want) {
		t.Fatal("ReplayCorpusMix(.., 0) differs from ReplayCorpus")
	}
}
