package core_test

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/workload"
)

// TestPressureBudgetDemotesWebs drives demotion through the pressure
// cap: two equally shaped webs in one loop, and a descending cap sweep.
// Somewhere between "everything fits" and "no headroom at all" there
// must be a cap that promotes exactly one web and demotes the other —
// and at that point semantics must hold through destruction.
func TestPressureBudgetDemotesWebs(t *testing.T) {
	src := `
int a; int b;
void main() {
	int i;
	for (i = 0; i < 100; i++) {
		a += 1;
		b += 1;
	}
	print(a);
	print(b);
}
`
	// Sweep caps downward until exactly one of the two webs fits; where
	// that happens depends on span-block pressure and on the coloring,
	// which the sweep need not encode. promote checks semantics on every
	// run.
	for cap := 16; cap >= 1; cap-- {
		s := promote(t, src, pipeline.Options{PressureCap: cap}).Stats["main"]
		if s.WebsPromoted+s.WebsLoadOnly == 1 {
			if s.WebsDemoted != 1 {
				t.Fatalf("cap %d: WebsDemoted = %d, want 1: %+v", cap, s.WebsDemoted, s)
			}
			return
		}
	}
	t.Fatal("no cap in [1,16] promoted exactly one web")
}

// TestPressureBudgetZeroBudgetDemotesAll: a cap below the unpromoted
// function's own colors leaves no headroom, so every candidate web is
// demoted and the function is effectively unpromoted.
func TestPressureBudgetZeroBudgetDemotesAll(t *testing.T) {
	src := `
int a; int b;
void main() {
	int i;
	for (i = 0; i < 50; i++) { a += i; b += a; }
	print(a + b);
}
`
	out := promote(t, src, pipeline.Options{PressureCap: 1})
	s := out.Stats["main"]
	if s.WebsPromoted+s.WebsLoadOnly != 0 {
		t.Fatalf("no-headroom cap still promoted webs: %+v", s)
	}
	if s.WebsDemoted == 0 {
		t.Fatalf("no-headroom cap demoted nothing: %+v", s)
	}
	if out.After.DynMemOps() != out.Before.DynMemOps() {
		t.Errorf("all webs demoted, yet memory traffic moved: %d -> %d",
			out.Before.DynMemOps(), out.After.DynMemOps())
	}
}

// TestPressureCapParanoidDifferential runs the capped promotion under
// the paranoid semantic differential on the paper's running example and
// on the suite programs, where the cap binds: demotion must never
// change observable behavior. The promote helper additionally compares
// before/after interpreter runs.
func TestPressureCapParanoidDifferential(t *testing.T) {
	for _, cap := range []int{1, 3, 8} {
		out := promote(t, figure1Src, pipeline.Options{
			PressureCap: cap,
			Check:       pipeline.CheckParanoid,
		})
		if out.Before.Output[0] != 110 {
			t.Fatalf("cap %d: program computes %d, want 110", cap, out.Before.Output[0])
		}
	}
	for _, cap := range []int{4, 8} {
		for _, w := range workload.Suite() {
			promote(t, w.Src, pipeline.Options{
				PressureCap: cap,
				Check:       pipeline.CheckParanoid,
			})
		}
	}
}

// TestPressureCapPropertyCorpus is the property the whole layer
// guarantees: for every function of every corpus entry, re-coloring the
// emitted IR never needs more than max(cap, baseline) colors, and the
// recorded FinalColors is exactly that measurement. Some routine must
// also be brought under its uncapped colors by demoting webs, so the
// guarantee cannot hold only because the cap never binds.
func TestPressureCapPropertyCorpus(t *testing.T) {
	corpus := workload.Suite()
	corpus = append(corpus, workload.Corpus(11, 6)...)
	demoted := 0
	for _, cap := range []int{2, 5, 9} {
		for _, w := range corpus {
			out, err := pipeline.Run(w.Src, pipeline.Options{
				PressureCap:     cap,
				SkipMeasurement: true,
			})
			if err != nil {
				t.Fatalf("cap %d %s: %v", cap, w.Name, err)
			}
			results, names := regalloc.AllocateProgram(out.Prog)
			for _, fn := range names {
				pres := out.Pressure[fn]
				if pres == nil {
					continue
				}
				got := results[fn]
				if got == nil {
					continue
				}
				if got.Colors != pres.FinalColors {
					t.Errorf("cap %d %s/%s: recorded %d colors, emitted IR needs %d",
						cap, w.Name, fn, pres.FinalColors, got.Colors)
				}
				if got.Colors > pres.EffectiveCap {
					t.Errorf("cap %d %s/%s: %d colors exceeds effective cap %d",
						cap, w.Name, fn, got.Colors, pres.EffectiveCap)
				}
				if pres.EffectiveCap != max(cap, pres.BaselineColors) {
					t.Errorf("cap %d %s/%s: effective cap %d, want max(%d, %d)",
						cap, w.Name, fn, pres.EffectiveCap, cap, pres.BaselineColors)
				}
				if pres.Stats.WebsDemoted > 0 && pres.FinalColors < pres.UncappedColors {
					demoted++
				}
			}
		}
	}
	if demoted == 0 {
		t.Error("no routine demoted a web to get under its uncapped colors: the cap never binds")
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
