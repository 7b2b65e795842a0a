package opt

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/ssa"
)

func buildSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatal(err)
		}
		if _, err := ssa.Build(f); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

func countOp(f *ir.Function, op ir.Op) int {
	n := 0
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == op {
				n++
			}
		}
	}
	return n
}

func TestCopyPropagateChains(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFunction(p, "cp")
	a := f.NewReg("a")
	b := f.NewReg("b")
	c := f.NewReg("c")
	blk := f.NewBlock()
	blk.Append(ir.NewInstr(ir.OpCopy, a, ir.ConstVal(5)))
	blk.Append(ir.NewInstr(ir.OpCopy, b, ir.RegVal(a)))
	blk.Append(ir.NewInstr(ir.OpCopy, c, ir.RegVal(b)))
	blk.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(c)))
	blk.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	n := CopyPropagate(f)
	if n != 3 {
		t.Fatalf("removed %d copies, want 3", n)
	}
	pr := blk.Instrs[0]
	if pr.Op != ir.OpPrint || !pr.Args[0].IsConst() || pr.Args[0].Const() != 5 {
		t.Fatalf("print arg not folded through chain: %v", pr)
	}
}

func TestDCERemovesDeadArithmeticAndLoads(t *testing.T) {
	prog := buildSSA(t, `
int g;
void main() {
	int dead = g + 41;
	print(7);
}`)
	main := prog.Func("main")
	if n := countOp(main, ir.OpLoad); n != 1 {
		t.Fatalf("precondition: want 1 load, have %d", n)
	}
	DCE(main)
	if n := countOp(main, ir.OpLoad); n != 0 {
		t.Errorf("dead load survived DCE")
	}
	if n := countOp(main, ir.OpAdd); n != 0 {
		t.Errorf("dead add survived DCE")
	}
	// The print must survive.
	if n := countOp(main, ir.OpPrint); n != 1 {
		t.Errorf("print removed by DCE")
	}
}

func TestDCEKeepsStoresAndCalls(t *testing.T) {
	prog := buildSSA(t, `
int g;
void touch() { g = 1; }
void main() {
	g = 42;
	touch();
}`)
	main := prog.Func("main")
	stores := countOp(main, ir.OpStore)
	calls := countOp(main, ir.OpCall)
	DCE(main)
	if countOp(main, ir.OpStore) != stores || countOp(main, ir.OpCall) != calls {
		t.Error("DCE removed a store or call")
	}
}

func TestDCEKeepsLiveMemPhis(t *testing.T) {
	prog := buildSSA(t, `
int x;
void main() {
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}`)
	main := prog.Func("main")
	before := countOp(main, ir.OpMemPhi)
	if before == 0 {
		t.Fatal("precondition: loop should have a memphi for x")
	}
	DCE(main)
	// The memphi feeds the load of x inside the loop; it must survive.
	if after := countOp(main, ir.OpMemPhi); after == 0 {
		t.Error("live memphi removed by DCE")
	}
}

func TestDCERemovesDeadPhis(t *testing.T) {
	prog := buildSSA(t, `
int c;
void main() {
	int a = 0;
	if (c) { a = 1; } else { a = 2; }
	print(9);
}`)
	main := prog.Func("main")
	DCE(main)
	if n := countOp(main, ir.OpPhi); n != 0 {
		t.Errorf("dead phi survived: %d", n)
	}
}

// TestDCECompactsBlocks: DCE removes dead instructions from each block
// in one pass. Every removed instruction has a nil Parent, the
// survivors keep their order and their block, and the count returned
// is the number removed.
func TestDCECompactsBlocks(t *testing.T) {
	prog := buildSSA(t, `
int g; int h;
void main() {
	int a = g + 1;
	int dead1 = g * 3;
	print(a);
	int dead2 = a - 5;
	h = a + 2;
	int dead3 = h + dead2;
	print(h);
}`)
	main := prog.Func("main")
	before := make(map[*ir.Block][]*ir.Instr)
	for _, b := range main.Blocks {
		before[b] = append([]*ir.Instr(nil), b.Instrs...)
	}
	n := DCE(main)
	if n < 3 {
		t.Fatalf("DCE removed %d instructions, want at least the 3 dead ones:\n%s", n, main)
	}
	removed := 0
	for _, b := range main.Blocks {
		var kept []*ir.Instr
		for _, in := range before[b] {
			if in.Parent == nil {
				removed++
				continue
			}
			if in.Parent != b {
				t.Errorf("survivor %v moved from %v to %v", in, b, in.Parent)
			}
			kept = append(kept, in)
		}
		if len(kept) != len(b.Instrs) {
			t.Fatalf("%v: %d survivors with a Parent, %d instructions left", b, len(kept), len(b.Instrs))
		}
		for i := range kept {
			if kept[i] != b.Instrs[i] {
				t.Fatalf("%v: survivors out of order at %d: %v, want %v", b, i, b.Instrs[i], kept[i])
			}
		}
	}
	if removed != n {
		t.Errorf("DCE returned %d, but %d instructions lost their Parent", n, removed)
	}
	if err := main.Verify(ir.VerifySSA); err != nil {
		t.Fatal(err)
	}
}

// TestDCEKeepsCallWithUnusedResult: a call is a root whatever happens
// to its result.
func TestDCEKeepsCallWithUnusedResult(t *testing.T) {
	prog := buildSSA(t, `
int g;
int bump() { g = g + 1; return g; }
void main() {
	int unused = bump();
	print(g);
}`)
	main := prog.Func("main")
	var call *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCall {
				call = in
			}
		}
	}
	if call == nil || !call.HasDst() {
		t.Fatalf("precondition: want a call with a result\n%s", main)
	}
	DCE(main)
	if call.Parent == nil || countOp(main, ir.OpCall) != 1 {
		t.Errorf("DCE removed a call whose result is unused:\n%s", main)
	}
}

// TestDCERemovesDeadPhiCycle: a loop-carried variable nothing reads is
// a phi and an add that only use each other. Neither is reached from a
// root, so both go.
func TestDCERemovesDeadPhiCycle(t *testing.T) {
	prog := buildSSA(t, `
void main() {
	int i; int d = 0;
	for (i = 0; i < 10; i++) { d = d + 3; }
	print(i);
}`)
	main := prog.Func("main")
	// addsOf3 counts d's increments, the only adds of the constant 3.
	addsOf3 := func() int {
		n := 0
		for _, b := range main.Blocks {
			for _, in := range b.Instrs {
				if in.Op == ir.OpAdd && in.Args[1].IsConst() && in.Args[1].Const() == 3 {
					n++
				}
			}
		}
		return n
	}
	if addsOf3() != 1 {
		t.Fatalf("precondition: want d's add in the loop\n%s", main)
	}
	DCE(main)
	if addsOf3() != 0 {
		t.Errorf("dead cycle's add survived\n%s", main)
	}
	// Only i's phi is left: everything else merged d or was already dead.
	if got := countOp(main, ir.OpPhi); got != 1 {
		t.Errorf("%d phis left, want only i's\n%s", got, main)
	}
	if err := main.Verify(ir.VerifySSA); err != nil {
		t.Fatal(err)
	}
}

func TestCleanupReachesFixpoint(t *testing.T) {
	// A copy feeding a dead add feeding nothing: needs copy-prop then
	// DCE, possibly repeatedly.
	prog := buildSSA(t, `
int g;
void main() {
	int a = g;
	int b = a;
	int c = b + 1;
	print(1);
}`)
	main := prog.Func("main")
	Cleanup(main)
	if n := countOp(main, ir.OpCopy) + countOp(main, ir.OpAdd) + countOp(main, ir.OpLoad); n != 0 {
		t.Errorf("Cleanup left %d dead instructions:\n%s", n, main)
	}
	if err := main.Verify(ir.VerifySSA); err != nil {
		t.Fatal(err)
	}
}
