package core_test

import (
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// promote runs the full pipeline and checks semantic equivalence: the
// promoted program must print the same values, return the same result,
// and leave the same global memory image as the original.
func promote(t *testing.T, src string, opts pipeline.Options) *pipeline.Outcome {
	t.Helper()
	out, err := pipeline.Run(src, opts)
	if err != nil {
		t.Fatalf("pipeline.Run: %v", err)
	}
	if out.Before != nil && out.After != nil {
		if !reflect.DeepEqual(out.Before.Output, out.After.Output) {
			t.Fatalf("output changed by promotion:\nbefore: %v\nafter:  %v\nprogram:\n%s",
				out.Before.Output, out.After.Output, out.Prog)
		}
		if out.Before.ReturnValue != out.After.ReturnValue {
			t.Fatalf("return value changed: %d -> %d", out.Before.ReturnValue, out.After.ReturnValue)
		}
		if !reflect.DeepEqual(out.Before.Globals, out.After.Globals) {
			t.Fatalf("global memory image changed:\nbefore: %v\nafter:  %v\nprogram:\n%s",
				out.Before.Globals, out.After.Globals, out.Prog)
		}
	}
	return out
}

const figure1Src = `
int x;
void foo() { x = x + 1; }
void main() {
	int i;
	for (i = 0; i < 100; i++) x++;
	for (i = 0; i < 10; i++) foo();
	print(x);
}
`

// TestFigure1 reproduces the paper's running example: promotion scoped
// to intervals reduces the first loop's 200 memory operations to a
// preheader load and a tail store, while the call-bearing second loop
// is left alone.
func TestFigure1(t *testing.T) {
	out := promote(t, figure1Src, pipeline.Options{})
	if out.Before.Output[0] != 110 {
		t.Fatalf("program computes %d, want 110", out.Before.Output[0])
	}

	// Dynamic improvement in main: before, the first loop does 100
	// loads + 100 stores; after, 1 load + 1 store around it.
	saved := out.Before.DynMemOps() - out.After.DynMemOps()
	if saved < 190 {
		t.Errorf("promotion saved %d dynamic memory ops, want >= 190 (before=%d after=%d)",
			saved, out.Before.DynMemOps(), out.After.DynMemOps())
	}

	mainStats := out.Stats["main"]
	if mainStats == nil || mainStats.WebsPromoted == 0 {
		t.Errorf("no webs promoted in main: %+v", mainStats)
	}
	if mainStats.StoresDeleted == 0 {
		t.Errorf("store in hot loop not deleted: %+v", mainStats)
	}
}

// TestFigure7ColdCallPath reproduces the paper's Figure 7/8: a loop
// whose only aliased reference sits on a rarely executed path. The
// algorithm promotes x, placing the compensation load and store inside
// the `if (x < 30)` arm.
func TestFigure7ColdCallPath(t *testing.T) {
	src := `
int x;
int log;
void foo() { log = log + x; }
void main() {
	int i;
	for (i = 0; i < 100; i++) {
		x++;
		if (x < 30) foo();
	}
	print(x);
	print(log);
}
`
	out := promote(t, src, pipeline.Options{})
	stats := out.Stats["main"]
	if stats.WebsPromoted == 0 {
		t.Fatalf("cold-call loop not promoted: %+v\n%s", stats, out.Prog)
	}
	// The loop body executes 100 times; the call path far less. After
	// promotion the per-iteration load/store pair is gone — memory ops
	// happen only around calls.
	if out.After.DynMemOps() >= out.Before.DynMemOps() {
		t.Errorf("no dynamic improvement: before=%d after=%d",
			out.Before.DynMemOps(), out.After.DynMemOps())
	}
	// Compensation stores were inserted (before the cold calls).
	if stats.StoresInserted == 0 {
		t.Errorf("expected compensation stores on the cold path: %+v", stats)
	}
}

// TestHotCallLoopRejected: when the call executes every iteration, the
// profit of store removal is negative and the web must not be fully
// promoted (this is the vortex-like no-gain case).
func TestHotCallLoopRejected(t *testing.T) {
	src := `
int x;
void foo() { x = x + 1; }
void main() {
	int i;
	for (i = 0; i < 50; i++) {
		foo();
	}
	print(x);
}
`
	out := promote(t, src, pipeline.Options{})
	// x's only accesses in the loop are through the call; there are no
	// direct loads or stores to replace, so memory traffic must not
	// increase.
	if out.After.DynMemOps() > out.Before.DynMemOps() {
		t.Errorf("promotion added traffic on hot-call loop: before=%d after=%d",
			out.Before.DynMemOps(), out.After.DynMemOps())
	}
}

// TestLoadOnlyWeb: a loop that only reads a global gets the read hoisted
// to one preheader load (the defs == {} branch of Figure 4).
func TestLoadOnlyWeb(t *testing.T) {
	src := `
int limit = 1000;
int total;
void main() {
	int i;
	int s = 0;
	for (i = 0; i < limit; i++) s += i;
	total = s;
	print(s);
}
`
	out := promote(t, src, pipeline.Options{})
	// Before: one load of limit per iteration (1000). After: 1.
	if out.After.DynLoads() > out.Before.DynLoads()/100 {
		t.Errorf("loads not hoisted: before=%d after=%d",
			out.Before.DynLoads(), out.After.DynLoads())
	}
}

// TestAddressTakenLocal: an address-exposed local scalar is promotable
// when the loop has no aliased references to it.
func TestAddressTakenLocal(t *testing.T) {
	src := `
void main() {
	int a = 0;
	int* p = &a;
	*p = 5;
	int i;
	for (i = 0; i < 200; i++) {
		a = a + i;
	}
	print(a);
}
`
	out := promote(t, src, pipeline.Options{})
	if out.After.DynMemOps() >= out.Before.DynMemOps() {
		t.Errorf("address-taken local not promoted: before=%d after=%d",
			out.Before.DynMemOps(), out.After.DynMemOps())
	}
}

// TestStructFieldPromotion: scalar components of structures are
// independent singleton resources and promote independently.
func TestStructFieldPromotion(t *testing.T) {
	src := `
struct counters { int hits; int misses; };
struct counters c;
void main() {
	int i;
	for (i = 0; i < 300; i++) {
		if (i % 3 == 0) { c.hits++; } else { c.misses++; }
	}
	print(c.hits);
	print(c.misses);
}
`
	out := promote(t, src, pipeline.Options{})
	if out.After.DynMemOps()*4 > out.Before.DynMemOps() {
		t.Errorf("struct fields not promoted: before=%d after=%d",
			out.Before.DynMemOps(), out.After.DynMemOps())
	}
}

// TestArrayNotPromoted: array elements are aggregate references and must
// never be promoted; the program must still be correct.
func TestArrayNotPromoted(t *testing.T) {
	src := `
int a[16];
void main() {
	int i;
	for (i = 0; i < 16; i++) a[i] = i;
	int s = 0;
	for (i = 0; i < 16; i++) s += a[i];
	print(s);
}
`
	out := promote(t, src, pipeline.Options{})
	if out.Before.Output[0] != 120 {
		t.Fatalf("wrong sum: %v", out.Before.Output)
	}
}

// TestNestedLoopPropagation: promotion in the inner interval pushes a
// load/store pair into the outer interval, where the outer pass
// promotes them again, leaving memory traffic only at the outermost
// boundary.
func TestNestedLoopPropagation(t *testing.T) {
	src := `
int g;
void main() {
	int i; int j;
	for (i = 0; i < 20; i++) {
		for (j = 0; j < 20; j++) {
			g += i * j;
		}
	}
	print(g);
}
`
	out := promote(t, src, pipeline.Options{})
	// 400 iterations of load+store originally; after double promotion
	// only the outermost boundary touches memory.
	if out.After.DynMemOps() > 10 {
		t.Errorf("nested promotion left %d dynamic memory ops (before %d)",
			out.After.DynMemOps(), out.Before.DynMemOps())
	}
}

// TestPointerHeavyLoopNotBroken: pointer stores through a pointer that
// may alias the promoted variable must block or compensate promotion;
// semantics are the acid test.
func TestPointerHeavyLoopNotBroken(t *testing.T) {
	src := `
int x;
int y;
void main() {
	int* p = &x;
	int i;
	for (i = 0; i < 50; i++) {
		x = x + 1;
		if (i % 10 == 0) { *p = x + 100; }
	}
	print(x);
	print(y);
}
`
	promote(t, src, pipeline.Options{})
}

// TestStaticProfileFallback: the pipeline also works with the static
// loop-depth estimator.
func TestStaticProfileFallback(t *testing.T) {
	out := promote(t, figure1Src, pipeline.Options{StaticProfile: true})
	if out.TotalStats.WebsPromoted == 0 {
		t.Error("static profile promoted nothing")
	}
}

// TestPaperProfitFormula: the exact paper formula (tail stores not
// counted) must also produce a correct program.
func TestPaperProfitFormula(t *testing.T) {
	promote(t, figure1Src, pipeline.Options{PaperProfitFormula: true})
}

// TestBaselineAlgorithm: the Lu–Cooper-style baseline must be
// semantically correct too, and must refuse the cold-call loop the SSA
// algorithm handles.
func TestBaselineAlgorithm(t *testing.T) {
	src := `
int x;
void foo() { x = x - 2; }
void main() {
	int i;
	for (i = 0; i < 100; i++) {
		x++;
		if (x < 30) foo();
	}
	print(x);
}
`
	base := promote(t, src, pipeline.Options{Algorithm: pipeline.AlgBaseline})
	ssa := promote(t, src, pipeline.Options{Algorithm: pipeline.AlgSSA})
	// The baseline cannot touch this loop (a call is present), so the
	// SSA algorithm must beat it.
	if ssa.After.DynMemOps() >= base.After.DynMemOps() {
		t.Errorf("SSA promotion (%d mem ops) should beat baseline (%d) on cold-call loop",
			ssa.After.DynMemOps(), base.After.DynMemOps())
	}
}

// TestBaselineMatchesOnCleanLoop: on a loop with no aliased references
// both algorithms promote fully.
func TestBaselineMatchesOnCleanLoop(t *testing.T) {
	src := `
int x;
void main() {
	int i;
	for (i = 0; i < 100; i++) x++;
	print(x);
}
`
	base := promote(t, src, pipeline.Options{Algorithm: pipeline.AlgBaseline})
	ssaOut := promote(t, src, pipeline.Options{Algorithm: pipeline.AlgSSA})
	if base.After.DynMemOps() != ssaOut.After.DynMemOps() {
		t.Errorf("baseline %d vs ssa %d dynamic mem ops on clean loop",
			base.After.DynMemOps(), ssaOut.After.DynMemOps())
	}
}

// TestWholeFunctionScopeAblation reproduces the paper's section 4.1
// comparison: promoting at whole-function scope (its rejected first
// approach) wins over no promotion but inserts redundant compensation
// traffic around the call-bearing region that interval scoping avoids.
func TestWholeFunctionScopeAblation(t *testing.T) {
	whole := promote(t, figure1Src, pipeline.Options{WholeFunctionScope: true})
	interval := promote(t, figure1Src, pipeline.Options{})
	if whole.After.DynMemOps() >= whole.Before.DynMemOps() {
		t.Errorf("whole-function scope should still improve: %d -> %d",
			whole.Before.DynMemOps(), whole.After.DynMemOps())
	}
	if interval.After.DynMemOps() >= whole.After.DynMemOps() {
		t.Errorf("interval scope (%d ops) must beat whole-function scope (%d ops)",
			interval.After.DynMemOps(), whole.After.DynMemOps())
	}
}

// TestWholeFunctionScopeSemantics: the rejected approach must still be
// correct on every workload.
func TestWholeFunctionScopeSemantics(t *testing.T) {
	for _, w := range workload.Suite() {
		t.Run(w.Name, func(t *testing.T) {
			promote(t, w.Src, pipeline.Options{WholeFunctionScope: true})
		})
	}
}

// TestMultiExitLoop: a loop left through break as well as the normal
// exit needs a tail store per exit edge.
func TestMultiExitLoop(t *testing.T) {
	src := `
int x;
void main() {
	int i;
	for (i = 0; i < 1000; i++) {
		x += i;
		if (x > 900) break;
	}
	print(x);
	print(i);
}
`
	out := promote(t, src, pipeline.Options{})
	if out.Stats["main"].WebsPromoted == 0 {
		t.Fatalf("multi-exit loop not promoted: %+v", out.Stats["main"])
	}
	if out.After.DynMemOps() >= out.Before.DynMemOps()/2 {
		t.Errorf("weak improvement on multi-exit loop: %d -> %d",
			out.Before.DynMemOps(), out.After.DynMemOps())
	}
}

// TestDoWhileLoop: the do-while shape (body before test) promotes too.
func TestDoWhileLoop(t *testing.T) {
	src := `
int x;
void main() {
	int i = 0;
	do {
		x = x + 2;
		i++;
	} while (i < 250);
	print(x);
}
`
	out := promote(t, src, pipeline.Options{})
	if out.After.DynMemOps() > 10 {
		t.Errorf("do-while loop left %d memory ops (before %d)",
			out.After.DynMemOps(), out.Before.DynMemOps())
	}
}

// TestPromotionKeepsSSAValid: for every workload, the promoted program
// must still satisfy the full SSA discipline before destruction.
func TestPromotionKeepsSSAValid(t *testing.T) {
	for _, w := range workload.Suite() {
		t.Run(w.Name, func(t *testing.T) {
			prog, err := source.Compile(w.Src)
			if err != nil {
				t.Fatal(err)
			}
			if err := alias.Analyze(prog); err != nil {
				t.Fatal(err)
			}
			res, err := interp.Run(prog, interp.Options{CollectProfile: true})
			if err != nil {
				t.Fatal(err)
			}
			prog2, err := source.Compile(w.Src)
			if err != nil {
				t.Fatal(err)
			}
			if err := alias.Analyze(prog2); err != nil {
				t.Fatal(err)
			}
			for _, f := range prog2.Funcs {
				forest, err := cfg.Normalize(f)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := ssa.Build(f); err != nil {
					t.Fatal(err)
				}
				if _, err := core.PromoteFunction(f, forest, core.Config{
					Profile:         res.Profile.ForFunc(f.Name),
					CountTailStores: true,
				}); err != nil {
					t.Fatal(err)
				}
				if err := ssa.VerifyDominance(f); err != nil {
					t.Fatalf("%s: post-promotion SSA invalid: %v\n%s", f.Name, err, f)
				}
			}
		})
	}
}

// TestWebSplittingAcrossCalls reproduces the paper's section 4.2
// example: sequential calls split one variable into multiple webs, each
// considered independently, so a later call does not block promotion of
// an earlier region.
func TestWebSplittingAcrossCalls(t *testing.T) {
	src := `
int x;
int sink;
void foo() { sink = sink + x; }
void bar() { sink = sink * 2 + x; }
void main() {
	int i;
	for (i = 0; i < 400; i++) x += i;
	foo();
	for (i = 0; i < 400; i++) x += 3;
	bar();
	print(x);
	print(sink);
}
`
	out := promote(t, src, pipeline.Options{})
	stats := out.Stats["main"]
	// Both hot loops promote despite the interleaved calls.
	if stats.WebsPromoted < 2 {
		t.Errorf("expected both loop webs promoted: %+v", stats)
	}
	if out.After.DynMemOps() > out.Before.DynMemOps()/10 {
		t.Errorf("weak improvement: %d -> %d", out.Before.DynMemOps(), out.After.DynMemOps())
	}
}

// TestPressureBudget: a pressure cap one color above the unpromoted
// function still promotes exactly one of the four loop webs, keeps
// semantics, and bounds the register pressure increase relative to the
// unlimited run.
func TestPressureBudget(t *testing.T) {
	src := `
int a; int b; int c; int d;
void main() {
	int i;
	for (i = 0; i < 200; i++) {
		a += i; b += a; c += b; d += c;
	}
	print(a + b + c + d);
}
`
	limited := promote(t, src, pipeline.Options{PressureCap: 4})
	unlimited := promote(t, src, pipeline.Options{})
	s := limited.Stats["main"]
	if got := s.WebsPromoted + s.WebsLoadOnly; got != 1 {
		t.Fatalf("cap 4 promoted %d webs, want 1: %+v", got, s)
	}
	if pres := limited.Pressure["main"]; pres.FinalColors > 4 {
		t.Errorf("cap 4 accepted %d colors", pres.FinalColors)
	}
	// Capped promotion still improves, but less than unlimited.
	if limited.After.DynMemOps() >= limited.Before.DynMemOps() {
		t.Errorf("capped promotion did not improve: %d -> %d",
			limited.Before.DynMemOps(), limited.After.DynMemOps())
	}
	if unlimited.After.DynMemOps() >= limited.After.DynMemOps() {
		t.Errorf("unlimited (%d ops) should beat capped (%d ops)",
			unlimited.After.DynMemOps(), limited.After.DynMemOps())
	}
}

// TestPressureBudgetPicksBestWeb: with two candidate webs of very
// different heat in the same interval and room for only one more
// register, the cap must keep the hotter one (under a pressure budget,
// webs are considered in profit-per-pressure order).
func TestPressureBudgetPicksBestWeb(t *testing.T) {
	src := `
int hot; int cold;
void main() {
	int i;
	for (i = 0; i < 1000; i++) {
		hot += i;
		if (i % 250 == 0) cold += i;
	}
	print(hot); print(cold);
}
`
	out := promote(t, src, pipeline.Options{PressureCap: 3})
	if s := out.Stats["main"]; s.WebsDemoted != 1 {
		t.Errorf("cap 3 demoted %d webs, want 1 (cold): %+v", s.WebsDemoted, s)
	}
	// hot's ~2000 operations must be the ones removed; cold's stay.
	before, after := out.Before.DynMemOps(), out.After.DynMemOps()
	if before != 2010 || before-after != 1998 {
		t.Errorf("cap kept the wrong web: %d -> %d ops, want 2010 -> 12", before, after)
	}
}

// TestStatsAccumulate checks the Stats plumbing.
func TestStatsAccumulate(t *testing.T) {
	var s core.Stats
	s.Add(core.Stats{WebsConsidered: 2, LoadsReplaced: 3})
	s.Add(core.Stats{WebsConsidered: 1, StoresDeleted: 4})
	if s.WebsConsidered != 3 || s.LoadsReplaced != 3 || s.StoresDeleted != 4 {
		t.Errorf("Stats.Add broken: %+v", s)
	}
}
