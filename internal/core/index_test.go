package core_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// TestRefIndexMatchesRescan promotes every function of the suite, the
// imported suite, Corpus(1, 16) and the parser's fuzz seed corpus
// (whose improper-interval programs keep phis the SSA update inserts),
// under interval and whole-function scope, and after every web requires the promoter's per-base
// reference lists to hold exactly the live instructions that reference
// each base: what a rescan of the function finds, once each. Every
// insertion site must append what it inserts, and every removal or
// rewrite must be recognisable as stale.
func TestRefIndexMatchesRescan(t *testing.T) {
	corpus := append(append(workload.Suite(), workload.ImportedSuite()...), workload.Corpus(1, 16)...)
	corpus = append(corpus, fuzzSeeds(t)...)
	webs := 0
	for _, scope := range []core.Scope{core.ScopeIntervals, core.ScopeWholeFunction} {
		for _, w := range corpus {
			var prog *ir.Program
			var err error
			if w.Lang == workload.LangIR {
				prog, err = irimport.Compile(w.Src)
			} else {
				prog, err = source.Compile(w.Src)
			}
			if err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			if err := alias.Analyze(prog); err != nil {
				t.Fatalf("%s: %v", w.Name, err)
			}
			for _, f := range prog.Funcs {
				forest, err := cfg.Normalize(f)
				if err != nil {
					t.Fatalf("%s/%s: %v", w.Name, f.Name, err)
				}
				prof := profile.Estimate(f, forest)
				if _, err := ssa.Build(f); err != nil {
					t.Fatalf("%s/%s: %v", w.Name, f.Name, err)
				}
				config := core.Config{Profile: prof, Scope: scope, CountTailStores: true}
				n, err := core.PromoteCheckingRefs(f, forest, config)
				if err != nil {
					t.Fatalf("%s/%s, scope %d: %v", w.Name, f.Name, scope, err)
				}
				webs += n
			}
		}
	}
	if webs < 1000 {
		t.Fatalf("vacuous: %d webs checked", webs)
	}
	t.Logf("%d webs checked", webs)
}

// fuzzSeeds returns the programs of the parser's fuzz seed corpus that
// compile. Each corpus file holds string("...") lines.
func fuzzSeeds(t *testing.T) []workload.Workload {
	t.Helper()
	dir := filepath.Join("..", "source", "testdata", "fuzz", "FuzzParser")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []workload.Workload
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: %v", e.Name(), err)
			}
			if _, err := source.Compile(src); err == nil {
				out = append(out, workload.Workload{Name: "fuzz/" + e.Name(), Src: src})
			}
		}
	}
	return out
}
