package ssa

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/workload"
)

// cloneBaseStores inserts a cloned store after every store of base in
// f, as promotion's compensation stores are inserted, and returns the
// update's sets: the old set is every version of base a store or memphi
// defines, the cloned set the new stores' versions. It allocates the
// same resource IDs on two clones of one function.
func cloneBaseStores(f *ir.Function, base ir.ResourceID) (old, cloned []ir.ResourceID) {
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if len(in.MemDefs) == 0 || f.BaseOf(in.MemDefs[0].Res).ID != base {
				continue
			}
			switch in.Op {
			case ir.OpMemPhi:
				old = append(old, in.MemDefs[0].Res)
			case ir.OpStore:
				old = append(old, in.MemDefs[0].Res)
				v := f.NewVersion(base)
				st := ir.NewInstr(ir.OpStore, ir.NoReg, append([]ir.Value(nil), in.Args...)...)
				st.Loc = in.Loc
				st.MemDefs = []ir.MemRef{{Res: v.ID}}
				b.InsertAfter(st, in)
				cloned = append(cloned, v.ID)
			}
		}
	}
	return old, cloned
}

// storedBases returns up to max base resources of f that some store
// defines, in ID order.
func storedBases(f *ir.Function, max int) []ir.ResourceID {
	stored := make([]bool, len(f.Resources))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore {
				stored[f.BaseOf(in.MemDefs[0].Res).ID] = true
			}
		}
	}
	var out []ir.ResourceID
	for id, ok := range stored {
		if ok && len(out) < max {
			out = append(out, ir.ResourceID(id))
		}
	}
	return out
}

func renderPhis(phis []*ir.Instr) string {
	var sb strings.Builder
	for _, phi := range phis {
		fmt.Fprintf(&sb, "%v: %v\n", phi.Parent, phi)
	}
	return sb.String()
}

// updatePair runs one update with the reused Updater on a and a fresh
// UpdateForClonedResources on b, and fails unless the printed
// functions, the returned phis and the errors match.
func updatePair(t *testing.T, label string, u *Updater, a, b *ir.Function, oldA, clonedA, oldB, clonedB []ir.ResourceID) {
	t.Helper()
	domA := cfg.BuildDomTree(a)
	domB := cfg.BuildDomTree(b)
	phisA, errA := u.Update(a, domA, cfg.BuildDomFrontiers(domA), oldA, clonedA)
	phisB, errB := UpdateForClonedResources(b, domB, cfg.BuildDomFrontiers(domB), oldB, clonedB)
	if fmt.Sprint(errA) != fmt.Sprint(errB) {
		t.Fatalf("%s: reused updater error %v, fresh %v", label, errA, errB)
	}
	if ga, gb := a.String(), b.String(); ga != gb {
		t.Fatalf("%s: reused updater's IR differs from a fresh update's:\n--- reused\n%s\n--- fresh\n%s", label, ga, gb)
	}
	if ra, rb := renderPhis(phisA), renderPhis(phisB); ra != rb {
		t.Fatalf("%s: returned phis differ:\n--- reused\n%s--- fresh\n%s", label, ra, rb)
	}
}

// updateSequence clones the stores of several bases of a and b (two
// identical functions) in turn, twice over, updating a with u and b
// with fresh updates. It returns the number of updates run.
func updateSequence(t *testing.T, label string, u *Updater, a, b *ir.Function) int {
	t.Helper()
	n := 0
	for round := 0; round < 2; round++ {
		for _, base := range storedBases(a, 4) {
			oldA, clonedA := cloneBaseStores(a, base)
			oldB, clonedB := cloneBaseStores(b, base)
			updatePair(t, fmt.Sprintf("%s round %d base %s", label, round, a.Res(base)), u, a, b, oldA, clonedA, oldB, clonedB)
			n++
		}
	}
	return n
}

// TestUpdaterReuseMatchesFresh runs sequences of updates over several
// bases with one Updater reused across every call and every function,
// and checks each call against a fresh UpdateForClonedResources on an
// identical copy: the Updater must leave no state behind that changes a
// later update, on the same function or on the next one.
func TestUpdaterReuseMatchesFresh(t *testing.T) {
	var u Updater

	// The paper's Figure 9 update, then a sequence on the same function.
	fa, fb := buildFigure9(t), buildFigure9(t)
	fa.cloneStores(t)
	fb.cloneStores(t)
	updatePair(t, "figure 9", &u, fa.f, fb.f,
		[]ir.ResourceID{fa.v1}, []ir.ResourceID{fa.v2, fa.v3},
		[]ir.ResourceID{fb.v1}, []ir.ResourceID{fb.v2, fb.v3})
	updates := 1 + updateSequence(t, "figure 9", &u, fa.f, fb.f)

	srcs := map[string]string{}
	for _, w := range workload.Suite() {
		srcs[w.Name] = w.Src
	}
	for _, seed := range []int64{1, 7} {
		gen, err := workload.SizedGenConfig(workload.DeriveSeed(seed, 0), "large")
		if err != nil {
			t.Fatal(err)
		}
		gen.LoopMax = 3
		srcs[fmt.Sprintf("gen-%d", seed)] = workload.Generate(gen)
	}
	names := make([]string, 0, len(srcs))
	for name := range srcs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog, err := source.Compile(srcs[name])
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := alias.Analyze(prog); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range prog.Funcs {
			if _, err := cfg.Normalize(f); err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			if _, err := Build(f); err != nil {
				t.Fatalf("%s/%s: %v", name, f.Name, err)
			}
			updates += updateSequence(t, name+"/"+f.Name, &u, f, f.Clone())
		}
	}
	if updates < 20 {
		t.Fatalf("only %d updates ran", updates)
	}
	t.Logf("%d updates matched", updates)
}
