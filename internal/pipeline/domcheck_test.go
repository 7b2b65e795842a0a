package pipeline

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// ssaFunc returns a function of the first suite workload with at least
// three blocks and a single entry successor, taken through the pipeline
// up to the end of its ssa-build stage, with the chain's dominator tree.
func ssaFunc(t *testing.T) (*ir.Function, domTree) {
	t.Helper()
	prog, err := compileAnalyzed("", workload.Suite()[0].Src)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatalf("Normalize(%s): %v", f.Name, err)
		}
		cfg.RemoveUnreachable(f)
		if len(f.Blocks) < 3 || len(f.Entry().Succs) != 1 {
			continue
		}
		dt := buildDomTree(f)
		if err := ssa.BuildWith(f, dt.dom, dt.df); err != nil {
			t.Fatalf("ssa.BuildWith(%s): %v", f.Name, err)
		}
		return f, dt
	}
	t.Skip("no suitable function in the first workload")
	return nil, domTree{}
}

// TestParanoidCatchesMissedBump checks the CheckParanoid safety net: a
// direct Succs/Preds edit after ssa-build, without MarkCFGChanged, must
// make the next in-SSA boundary check reject the chain's dominator tree.
func TestParanoidCatchesMissedBump(t *testing.T) {
	f, dt := ssaFunc(t)
	r := &runner{opts: Options{Check: CheckParanoid}}
	if err := r.boundaryCheck(f, true, &dt); err != nil {
		t.Fatalf("untouched function rejected: %v", err)
	}

	// Illegally rewire the entry's successor edge straight to a later
	// block, bypassing the ir mutators (and so the version bump).
	entry := f.Entry()
	old := entry.Succs[0]
	var repl *ir.Block
	for _, b := range old.Succs {
		if b != old {
			repl = b
			break
		}
	}
	if repl == nil {
		t.Skip("no replacement successor available")
	}
	entry.Succs[0] = repl
	repl.Preds = append(repl.Preds, entry)
	if f.CFGVersion() != dt.version {
		t.Fatal("the illegal edit bumped the CFG version")
	}

	err := r.boundaryCheck(f, true, &dt)
	if err == nil || !strings.Contains(err.Error(), "stale domina") {
		t.Fatalf("paranoid boundary check after an unannounced CFG edit = %v, want a stale-dominance error", err)
	}
}

// TestBoundaryCheckRejectsCFGEdit checks the CheckBoundaries rule that
// the in-SSA stages keep the CFG the chain's dominator tree was built
// for: a legal, version-bumping edit after ssa-build must fail the next
// in-SSA boundary check.
func TestBoundaryCheckRejectsCFGEdit(t *testing.T) {
	f, dt := ssaFunc(t)
	r := &runner{opts: Options{Check: CheckBoundaries}}
	if err := r.boundaryCheck(f, true, &dt); err != nil {
		t.Fatalf("untouched function rejected: %v", err)
	}

	f.SplitEdge(f.Entry(), f.Entry().Succs[0], 0)

	err := r.boundaryCheck(f, true, &dt)
	if err == nil || !strings.Contains(err.Error(), "CFG version moved") {
		t.Fatalf("boundary check after a CFG edit = %v, want a CFG-version error", err)
	}
}
