package analysis_test

import (
	"maps"
	"testing"

	"repro/internal/alias"
	"repro/internal/analysis"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// compileCorpus returns the suite workloads plus generated programs,
// compiled and alias-analyzed but not yet normalized.
func compileCorpus(t *testing.T, generated int) []*ir.Program {
	t.Helper()
	var progs []*ir.Program
	srcs := make([]string, 0, 8+generated)
	for _, w := range workload.Suite() {
		srcs = append(srcs, w.Src)
	}
	for i := 0; i < generated; i++ {
		srcs = append(srcs, workload.Generate(workload.DefaultGenConfig(workload.DeriveSeed(7, i))))
	}
	for _, src := range srcs {
		prog, err := source.Compile(src)
		if err != nil {
			t.Fatalf("Compile: %v", err)
		}
		if err := alias.Analyze(prog); err != nil {
			t.Fatalf("Analyze: %v", err)
		}
		progs = append(progs, prog)
	}
	return progs
}

// requireEqualAnalyses asserts the cache's view of f matches fresh
// rebuilds structurally: dominator tree and frontiers.
func requireEqualAnalyses(t *testing.T, c *analysis.Cache, f *ir.Function) {
	t.Helper()

	dom, freshDom := c.Dom(f), cfg.BuildDomTree(f)
	if len(dom.RPO()) != len(freshDom.RPO()) {
		t.Fatalf("%s: cached dom has %d reachable blocks, fresh %d", f.Name, len(dom.RPO()), len(freshDom.RPO()))
	}
	for _, b := range freshDom.RPO() {
		if dom.Idom(b) != freshDom.Idom(b) {
			t.Fatalf("%s: idom(%v) cached %v, fresh %v", f.Name, b, dom.Idom(b), freshDom.Idom(b))
		}
		if dom.Depth(b) != freshDom.Depth(b) {
			t.Fatalf("%s: depth(%v) cached %d, fresh %d", f.Name, b, dom.Depth(b), freshDom.Depth(b))
		}
	}

	df, freshDF := c.DF(f), cfg.BuildDomFrontiers(freshDom)
	for _, b := range freshDom.RPO() {
		cb, fb := df.Of(b), freshDF.Of(b)
		if len(cb) != len(fb) {
			t.Fatalf("%s: |DF(%v)| cached %d, fresh %d", f.Name, b, len(cb), len(fb))
		}
		for i := range cb {
			if cb[i] != fb[i] {
				t.Fatalf("%s: DF(%v)[%d] cached %v, fresh %v", f.Name, b, i, cb[i], fb[i])
			}
		}
	}
}

// TestCachedMatchesFresh checks, across the generated corpus, that the
// cached dominator tree and frontiers are structurally identical to a
// fresh rebuild — before any CFG mutation, after Normalize, and after
// SSA construction (which removes unreachable blocks and may leave the
// version untouched or bumped; either way the cache must agree with
// fresh results).
func TestCachedMatchesFresh(t *testing.T) {
	for _, prog := range compileCorpus(t, 10) {
		c := analysis.New()
		for _, f := range prog.Funcs {
			requireEqualAnalyses(t, c, f)

			if _, err := cfg.Normalize(f); err != nil {
				t.Fatalf("Normalize(%s): %v", f.Name, err)
			}
			requireEqualAnalyses(t, c, f)

			dom := c.Dom(f)
			if err := ssa.BuildWith(f, dom, c.DF(f)); err != nil {
				t.Fatalf("ssa.BuildWith(%s): %v", f.Name, err)
			}
			requireEqualAnalyses(t, c, f)
		}
	}
}

// TestCacheHitsDoNotRebuild asserts repeated access at an unchanged CFG
// version serves hits: one dom and one df build per function, and a
// version bump costs exactly one more of each.
func TestCacheHitsDoNotRebuild(t *testing.T) {
	prog := compileCorpus(t, 1)[0]
	c := analysis.New()
	for _, f := range prog.Funcs {
		for i := 0; i < 3; i++ {
			c.Dom(f)
			c.DF(f)
		}
	}
	n := len(prog.Funcs)
	want := map[analysis.Kind]int{analysis.KindDom: n, analysis.KindDF: n}
	if got := c.TotalBuilds(); !maps.Equal(got, want) {
		t.Fatalf("builds after repeated access = %v, want %v", got, want)
	}

	prog.Funcs[0].MarkCFGChanged()
	c.DF(prog.Funcs[0])
	want = map[analysis.Kind]int{analysis.KindDom: n + 1, analysis.KindDF: n + 1}
	if got := c.TotalBuilds(); !maps.Equal(got, want) {
		t.Fatalf("builds after a version bump = %v, want %v", got, want)
	}
}
