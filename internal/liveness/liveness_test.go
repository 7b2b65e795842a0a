package liveness_test

import (
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/opt"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// figure1Src is the paper's running example (Figure 1).
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

// figure7Src is the paper's cold-call-path example (Figure 7).
const figure7Src = `
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

// buildSSA compiles src through the front half of the pipeline and
// returns it with each function in SSA form.
func buildSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatalf("alias: %v", err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatalf("normalize %s: %v", f.Name, err)
		}
		if _, err := ssa.Build(f); err != nil {
			t.Fatalf("ssa %s: %v", f.Name, err)
		}
	}
	return prog
}

func fn(t *testing.T, prog *ir.Program, name string) *ir.Function {
	t.Helper()
	for _, f := range prog.Funcs {
		if f.Name == name {
			return f
		}
	}
	t.Fatalf("function %s not found", name)
	return nil
}

// TestFigure1Golden pins the liveness facts of the paper's running
// example. The values are goldens: any change to the front end, the
// SSA builder, or the analysis that moves them is worth noticing.
func TestFigure1Golden(t *testing.T) {
	prog := buildSSA(t, figure1Src)

	foo := liveness.Compute(fn(t, prog, "foo"))
	if foo.MaxLive != 1 {
		t.Errorf("foo MaxLive = %d, want 1 (straight-line load-add-store)", foo.MaxLive)
	}

	main := fn(t, prog, "main")
	info := liveness.Compute(main)
	if info.MaxLive != 2 {
		t.Errorf("main MaxLive = %d, want 2", info.MaxLive)
	}
	// Per-block pressure of the two loops: x lives in memory, so each
	// loop carries only its counter i, and a block peaks at 2 where a
	// temporary (the loaded x, or the loop test) is live beside i.
	wantBlock := map[ir.BlockID]int{0: 1, 1: 2, 2: 2, 3: 1, 4: 1, 5: 2, 6: 1, 7: 1, 8: 1}
	for id, want := range wantBlock {
		if got := info.BlockMaxLive[id]; got != want {
			t.Errorf("main BlockMaxLive[%d] = %d, want %d", id, got, want)
		}
	}
	requireNoDeadPressure(t, prog)
}

// requireNoDeadPressure checks that SSA construction leaves no dead
// value live: every function's liveness equals its liveness after
// opt.DCE. Phis for registers never live across a block boundary would
// fail it, since their inputs count as live until the phi.
func requireNoDeadPressure(t *testing.T, prog *ir.Program) {
	t.Helper()
	for _, f := range prog.Funcs {
		got := liveness.Compute(f)
		c := f.Clone()
		opt.DCE(c)
		want := liveness.Compute(c)
		if got.MaxLive != want.MaxLive || !reflect.DeepEqual(got.BlockMaxLive, want.BlockMaxLive) {
			t.Errorf("%s: liveness %d %v, after DCE %d %v", f.Name, got.MaxLive, got.BlockMaxLive, want.MaxLive, want.BlockMaxLive)
		}
	}
}

// TestFigure7Golden pins the liveness facts of the cold-call example.
// Before promotion both globals live in memory, so the loop carries
// only its counter i: the branch diamond around the cold call holds 1
// live value, and the loop body peaks at 2 (i beside the loaded x).
func TestFigure7Golden(t *testing.T) {
	prog := buildSSA(t, figure7Src)

	foo := liveness.Compute(fn(t, prog, "foo"))
	if foo.MaxLive != 2 {
		t.Errorf("foo MaxLive = %d, want 2 (log and x webs overlap)", foo.MaxLive)
	}

	main := fn(t, prog, "main")
	info := liveness.Compute(main)
	if info.MaxLive != 2 {
		t.Errorf("main MaxLive = %d, want 2", info.MaxLive)
	}
	wantBlock := map[ir.BlockID]int{0: 1, 1: 2, 2: 2, 3: 1, 4: 1, 5: 1, 6: 1, 7: 1}
	for id, want := range wantBlock {
		if got := info.BlockMaxLive[id]; got != want {
			t.Errorf("main BlockMaxLive[%d] = %d, want %d", id, got, want)
		}
	}
	requireNoDeadPressure(t, prog)
}

// referenceLiveness is a deliberately naive map-based fixpoint with the
// same phi semantics as Compute, iterated in forward block order (the
// opposite of Compute's backward sweep) until stable. It exists only to
// cross-check the bitset implementation.
func referenceLiveness(f *ir.Function) (in, out map[ir.BlockID]map[int]bool) {
	in = make(map[ir.BlockID]map[int]bool)
	out = make(map[ir.BlockID]map[int]bool)
	for _, b := range f.Blocks {
		in[b.ID] = map[int]bool{}
		out[b.ID] = map[int]bool{}
	}
	equal := func(a, b map[int]bool) bool {
		if len(a) != len(b) {
			return false
		}
		for r := range a {
			if !b[r] {
				return false
			}
		}
		return true
	}
	for changed := true; changed; {
		changed = false
		for _, b := range f.Blocks {
			o := map[int]bool{}
			for _, s := range b.Succs {
				for r := range in[s.ID] {
					o[r] = true
				}
				for _, phi := range s.Phis() {
					if phi.Op != ir.OpPhi {
						continue
					}
					pi := s.PredIndex(b)
					if pi >= 0 && pi < len(phi.Args) && !phi.Args[pi].IsConst() {
						o[int(phi.Args[pi].Reg())] = true
					}
				}
			}
			i := map[int]bool{}
			for r := range o {
				i[r] = true
			}
			for k := len(b.Instrs) - 1; k >= 0; k-- {
				instr := b.Instrs[k]
				if instr.HasDst() {
					delete(i, int(instr.Dst))
				}
				if instr.Op == ir.OpPhi {
					continue
				}
				for _, a := range instr.Args {
					if !a.IsConst() {
						i[int(a.Reg())] = true
					}
				}
			}
			if !equal(o, out[b.ID]) || !equal(i, in[b.ID]) {
				out[b.ID], in[b.ID] = o, i
				changed = true
			}
		}
	}
	return in, out
}

// TestMatchesReference cross-checks Compute against the map-based
// reference on the whole workload suite plus a generated corpus.
func TestMatchesReference(t *testing.T) {
	corpus := workload.Suite()
	corpus = append(corpus, workload.Corpus(7, 6)...)
	for _, w := range corpus {
		prog := buildSSA(t, w.Src)
		for _, f := range prog.Funcs {
			info := liveness.Compute(f)
			refIn, refOut := referenceLiveness(f)
			for _, b := range f.Blocks {
				for r := 0; r < f.NumRegs; r++ {
					if info.LiveIn[b.ID].Has(r) != refIn[b.ID][r] {
						t.Fatalf("%s/%s block %d: live-in disagreement on r%d (bitset %v, reference %v)",
							w.Name, f.Name, b.ID, r, info.LiveIn[b.ID].Has(r), refIn[b.ID][r])
					}
					if info.LiveOut[b.ID].Has(r) != refOut[b.ID][r] {
						t.Fatalf("%s/%s block %d: live-out disagreement on r%d (bitset %v, reference %v)",
							w.Name, f.Name, b.ID, r, info.LiveOut[b.ID].Has(r), refOut[b.ID][r])
					}
				}
			}
		}
	}
}

// TestComputeIsDeterministic checks that recomputation on a clone
// reproduces the Info bit for bit.
func TestComputeIsDeterministic(t *testing.T) {
	prog := buildSSA(t, figure7Src)
	main := fn(t, prog, "main")
	a := liveness.Compute(main)
	b := liveness.Compute(main.Clone())
	if !reflect.DeepEqual(a, b) {
		t.Fatal("liveness of a clone differs from the original")
	}
}

// TestLiveAcross spot-checks the helper against the Figure 7 diamond:
// whatever is live-in of the branch block stays live across both arms.
func TestLiveAcross(t *testing.T) {
	prog := buildSSA(t, figure7Src)
	main := fn(t, prog, "main")
	info := liveness.Compute(main)
	found := false
	for r := 0; r < main.NumRegs; r++ {
		if info.LiveIn[5] != nil && info.LiveIn[5].Has(r) {
			found = true
			if !info.LiveAcross(5, ir.RegID(r)) {
				t.Errorf("r%d live-in of block 5 but LiveAcross says no", r)
			}
		}
	}
	if !found {
		t.Fatal("block 5 has empty live-in; golden assumption broken")
	}
	if info.LiveAcross(ir.BlockID(10_000), 0) {
		t.Error("LiveAcross claims liveness in a nonexistent block")
	}
}
