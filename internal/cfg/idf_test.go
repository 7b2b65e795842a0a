package cfg_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/workload"
)

// TestIDFReuseMatchesFresh computes iterated dominance frontiers with
// one IDF reused across every function and many definition sets, and
// checks each result against IteratedDF on fresh scratch, in order (the
// order sets phi insertion order, and with it version numbers), and
// against a naive fixpoint, as a set.
func TestIDFReuseMatchesFresh(t *testing.T) {
	srcs := workload.Suite()
	srcs = append(srcs, workload.Corpus(1, 8)...)
	rng := rand.New(rand.NewSource(1))
	var reused cfg.IDF
	sets, nonEmpty := 0, 0
	for _, w := range srcs {
		prog, err := source.Compile(w.Src)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if err := alias.Analyze(prog); err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		for _, f := range prog.Funcs {
			if _, err := cfg.Normalize(f); err != nil {
				t.Fatalf("%s/%s: %v", w.Name, f.Name, err)
			}
			df := cfg.BuildDomFrontiers(cfg.BuildDomTree(f))
			var defSets [][]*ir.Block
			for _, b := range f.Blocks {
				defSets = append(defSets, []*ir.Block{b})
			}
			for k := 0; k < 4*len(f.Blocks); k++ {
				var defs []*ir.Block
				for _, b := range f.Blocks {
					if rng.Intn(4) == 0 {
						defs = append(defs, b)
					}
				}
				rng.Shuffle(len(defs), func(i, j int) { defs[i], defs[j] = defs[j], defs[i] })
				defSets = append(defSets, defs)
			}
			defSets = append(defSets, f.Blocks)
			for _, defs := range defSets {
				got := slices.Clone(reused.Of(df, defs))
				want := cfg.IteratedDF(df, defs)
				if !slices.Equal(got, want) {
					t.Fatalf("%s/%s: IDF of %v: reused scratch %v, fresh %v", w.Name, f.Name, defs, got, want)
				}
				if ref := naiveIDF(df, defs); !sameSet(got, ref) {
					t.Fatalf("%s/%s: IDF of %v: %v, fixpoint %v", w.Name, f.Name, defs, got, ref)
				}
				sets++
				if len(got) > 0 {
					nonEmpty++
				}
			}
		}
	}
	if nonEmpty < 1000 {
		t.Fatalf("vacuous: %d of %d definition sets have a non-empty IDF", nonEmpty, sets)
	}
	t.Logf("%d definition sets (%d with a non-empty IDF) matched", sets, nonEmpty)
}

// naiveIDF iterates DF(defs ∪ result) to a fixpoint.
func naiveIDF(df cfg.DomFrontiers, defs []*ir.Block) map[*ir.Block]bool {
	result := map[*ir.Block]bool{}
	for changed := true; changed; {
		changed = false
		from := slices.Clone(defs)
		for b := range result {
			from = append(from, b)
		}
		for _, b := range from {
			for _, fb := range df.Of(b) {
				if !result[fb] {
					result[fb] = true
					changed = true
				}
			}
		}
	}
	return result
}

func sameSet(got []*ir.Block, want map[*ir.Block]bool) bool {
	if len(got) != len(want) {
		return false
	}
	for _, b := range got {
		if !want[b] {
			return false
		}
	}
	return true
}
