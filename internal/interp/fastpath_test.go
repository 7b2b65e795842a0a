package interp

import (
	"strconv"
	"testing"

	"repro/internal/analysis"
	"repro/internal/ir"
	"repro/internal/workload"
)

// The fast path is the engine running code served from a warm code
// cache: the way the pipeline measures after training, with every
// function already compiled and only revalidated per run.

// warmRun runs prog once to fill cache and once more from it, failing
// if the second run compiled anything. It returns the warm result.
func warmRun(t *testing.T, name string, prog *ir.Program, cache *analysis.Cache) *Result {
	t.Helper()
	opts := Options{CollectProfile: true, Code: cache}
	if _, err := Run(prog, opts); err != nil {
		t.Fatalf("%s: cold run: %v", name, err)
	}
	before := make(map[*ir.Function]int, len(prog.Funcs))
	for _, f := range prog.Funcs {
		before[f] = len(cache.Builds(f)[analysis.KindCode])
	}
	res, err := Run(prog, opts)
	if err != nil {
		t.Fatalf("%s: warm run: %v", name, err)
	}
	for _, f := range prog.Funcs {
		if got := len(cache.Builds(f)[analysis.KindCode]); got != before[f] {
			t.Errorf("%s: %s recompiled on the warm run (%d builds, want %d)", name, f.Name, got, before[f])
		}
	}
	return res
}

// TestFastPathMatchesLegacy runs every suite workload and a slice of
// generated programs through one shared code cache and requires each
// warm run to compile nothing and to match the reference interpreter on
// output, return value, globals, step and opcode counts, and the
// collected block/edge profile. Sharing the cache across programs also
// checks that same-named functions of different programs never collide.
func TestFastPathMatchesLegacy(t *testing.T) {
	var names, sources []string
	for _, w := range workload.Suite() {
		names = append(names, "suite/"+w.Name)
		sources = append(sources, w.Src)
	}
	for i := 0; i < 8; i++ {
		names = append(names, "gen/"+strconv.Itoa(i))
		sources = append(sources, workload.Generate(workload.DefaultGenConfig(workload.DeriveSeed(41, i))))
	}

	cache := analysis.New()
	for i, src := range sources {
		fast := warmRun(t, names[i], compileSource(t, src), cache)
		legacy := runPath(t, src, Options{CollectProfile: true, Legacy: true})
		requireSameResult(t, names[i], "fast", "legacy", fast, legacy)
	}
}

// TestFastPathRecursion runs the deep-recursion program from a warm
// code cache: the arena starts small again on every run, so the growth
// path is exercised by cached code as well as by freshly compiled code.
func TestFastPathRecursion(t *testing.T) {
	fast := warmRun(t, "recursion", compileSource(t, recursionSrc), analysis.New())
	legacy := runPath(t, recursionSrc, Options{CollectProfile: true, Legacy: true})
	requireSameResult(t, "recursion", "fast", "legacy", fast, legacy)
	if fast.Output[0] != 1597 {
		t.Fatalf("fib(17) = %d, want 1597", fast.Output[0])
	}
}
