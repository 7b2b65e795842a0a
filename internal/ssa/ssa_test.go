package ssa

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/source"
)

// buildSSA compiles mini-C, runs alias analysis, normalizes, and builds
// SSA for every function.
func buildSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatalf("Normalize(%s): %v", f.Name, err)
		}
		if _, err := Build(f); err != nil {
			t.Fatalf("Build(%s): %v", f.Name, err)
		}
		if err := VerifyDominance(f); err != nil {
			t.Fatalf("VerifyDominance(%s): %v\n%s", f.Name, err, f)
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

func TestBuildStraightLine(t *testing.T) {
	prog := buildSSA(t, `
void main() {
	int a = 1;
	a = a + 2;
	a = a * 3;
	print(a);
}
`)
	main := prog.Func("main")
	if n := countOp(main, ir.OpPhi); n != 0 {
		t.Errorf("straight-line code has %d phis, want 0", n)
	}
}

func TestBuildIfElsePhi(t *testing.T) {
	prog := buildSSA(t, `
int c;
void main() {
	int a = 0;
	if (c > 0) { a = 1; } else { a = 2; }
	print(a);
}
`)
	main := prog.Func("main")
	if n := countOp(main, ir.OpPhi); n != 1 {
		t.Errorf("if/else merge has %d reg phis, want 1\n%s", n, main)
	}
}

// TestBuildSemiPruned checks that only registers live across a block
// boundary get phis: the loop's temporaries (the loaded x, the product,
// the sum, the loop test) are each used only after their definition in
// the same block, so the loop header merges the counter i alone.
func TestBuildSemiPruned(t *testing.T) {
	prog := buildSSA(t, `
int x;
void main() {
	int i;
	for (i = 0; i < 100; i++) x = x * 2 + i;
	print(x);
}
`)
	main := prog.Func("main")
	if n := countOp(main, ir.OpPhi); n != 1 {
		t.Errorf("loop has %d reg phis, want 1 (the counter)\n%s", n, main)
	}
}

func TestBuildLoopMemPhi(t *testing.T) {
	// The first loop of the paper's Figure 1: x is loaded and stored in
	// every iteration, so the loop header needs a memphi for x merging
	// the preheader value with the back-edge store.
	prog := buildSSA(t, `
int x;
void main() {
	int i;
	for (i = 0; i < 100; i++) x++;
}
`)
	main := prog.Func("main")
	var memphi *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMemPhi && main.Res(in.MemDefs[0].Res).Name == "x" {
				memphi = in
			}
		}
	}
	if memphi == nil {
		t.Fatalf("no memphi for x:\n%s", main)
	}
	if len(memphi.MemUses) != 2 {
		t.Fatalf("memphi arity = %d, want 2", len(memphi.MemUses))
	}
	vers := map[int]bool{}
	for _, u := range memphi.MemUses {
		vers[main.Res(u.Res).Version] = true
	}
	if len(vers) != 2 {
		t.Errorf("memphi merges one version twice: %v", vers)
	}
}

func TestBuildLoadUsesStoreVersion(t *testing.T) {
	prog := buildSSA(t, `
int x;
void main() {
	x = 5;
	print(x);
}
`)
	main := prog.Func("main")
	var st, ld *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpStore {
				st = in
			}
			if in.Op == ir.OpLoad {
				ld = in
			}
		}
	}
	if st == nil || ld == nil {
		t.Fatal("missing store/load")
	}
	if ld.MemUses[0].Res != st.MemDefs[0].Res {
		t.Errorf("load uses %s but store defines %s",
			main.Res(ld.MemUses[0].Res), main.Res(st.MemDefs[0].Res))
	}
	if main.Res(st.MemDefs[0].Res).Version == 0 {
		t.Error("store must define a fresh version, not version 0")
	}
}

func TestBuildCallCreatesNewVersions(t *testing.T) {
	prog := buildSSA(t, `
int x;
void foo() { x++; }
void main() {
	x = 1;
	foo();
	print(x);
}
`)
	main := prog.Func("main")
	var st, call, ld *ir.Instr
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			switch in.Op {
			case ir.OpStore:
				st = in
			case ir.OpCall:
				call = in
			case ir.OpLoad:
				ld = in
			}
		}
	}
	xStore := st.MemDefs[0].Res
	xCall := memDefNamed(main, call, "x")
	if memUseNamed(main, call, "x") != xStore {
		t.Errorf("call should use the stored version of x")
	}
	if ld.MemUses[0].Res != xCall {
		t.Errorf("load after call must use the call's version of x")
	}
}

// memDefNamed returns the resource version the instruction defines for
// the named base, or NoResource.
func memDefNamed(f *ir.Function, in *ir.Instr, name string) ir.ResourceID {
	for _, d := range in.MemDefs {
		if f.Res(d.Res).Name == name {
			return d.Res
		}
	}
	return ir.NoResource
}

// memUseNamed returns the resource version the instruction uses for the
// named base, or NoResource.
func memUseNamed(f *ir.Function, in *ir.Instr, name string) ir.ResourceID {
	for _, u := range in.MemUses {
		if f.Res(u.Res).Name == name {
			return u.Res
		}
	}
	return ir.NoResource
}

func TestPruneTrivialPhis(t *testing.T) {
	// A diamond where both arms leave the variable untouched produces a
	// trivial phi under pessimistic placement; Build must have pruned it.
	prog := buildSSA(t, `
int c;
void main() {
	int a = 7;
	if (c) { print(1); } else { print(2); }
	print(a);
}
`)
	main := prog.Func("main")
	if n := countOp(main, ir.OpPhi); n != 0 {
		t.Errorf("trivial phi survived: %d phis\n%s", n, main)
	}
}

func TestDestructRemovesPhisAndVersions(t *testing.T) {
	prog := buildSSA(t, `
int x;
int c;
void main() {
	int a = 0;
	if (c > 0) { a = 1; x = 2; } else { a = 2; x = 3; }
	print(a + x);
}
`)
	main := prog.Func("main")
	Destruct(main)
	if n := countOp(main, ir.OpPhi) + countOp(main, ir.OpMemPhi); n != 0 {
		t.Fatalf("%d phis remain after Destruct", n)
	}
	for _, b := range main.Blocks {
		for _, in := range b.Instrs {
			for _, u := range in.MemUses {
				if main.Res(u.Res).Version != 0 {
					t.Fatalf("versioned resource %s survived Destruct", main.Res(u.Res))
				}
			}
			for _, d := range in.MemDefs {
				if main.Res(d.Res).Version != 0 {
					t.Fatalf("versioned resource %s survived Destruct", main.Res(d.Res))
				}
			}
		}
	}
	if err := main.Verify(ir.VerifyCFG); err != nil {
		t.Fatal(err)
	}
}

func TestDestructBreaksSwapCycle(t *testing.T) {
	// Construct a phi swap by hand:
	//   header: a = phi(1, b'), b = phi(2, a')  with a'=b, b'=a in body
	// i.e. each iteration swaps a and b. Destruct must introduce a temp.
	p := ir.NewProgram()
	f := ir.NewFunction(p, "swap")
	n := f.NewReg("n")
	f.Params = []ir.RegID{n}
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()

	a := f.NewReg("a")
	b := f.NewReg("b")
	i := f.NewReg("i")
	i2 := f.NewReg("i2")
	cond := f.NewReg("cond")

	entry.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	ir.AddEdge(entry, header)

	phiA := ir.NewInstr(ir.OpPhi, a, ir.ConstVal(1), ir.RegVal(b))
	phiB := ir.NewInstr(ir.OpPhi, b, ir.ConstVal(2), ir.RegVal(a))
	phiI := ir.NewInstr(ir.OpPhi, i, ir.ConstVal(0), ir.RegVal(i2))
	header.Append(phiA)
	header.Append(phiB)
	header.Append(phiI)
	header.Append(ir.NewInstr(ir.OpLt, cond, ir.RegVal(i), ir.RegVal(n)))
	header.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	ir.AddEdge(header, body)
	ir.AddEdge(header, exit)

	body.Append(ir.NewInstr(ir.OpAdd, i2, ir.RegVal(i), ir.ConstVal(1)))
	body.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	ir.AddEdge(body, header)

	exit.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(a)))
	exit.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	if err := VerifyDominance(f); err != nil {
		t.Fatalf("input not valid SSA: %v", err)
	}
	Destruct(f)
	if err := f.Verify(ir.VerifyCFG); err != nil {
		t.Fatal(err)
	}
	// The body edge's parallel copy {a<-b, b<-a} needs a temporary:
	// there must be at least 3 copies at the end of body.
	copies := 0
	for _, in := range body.Instrs {
		if in.Op == ir.OpCopy {
			copies++
		}
	}
	if copies < 3 {
		t.Errorf("swap cycle broken with %d copies, want >= 3 (temp needed)\n%s", copies, f)
	}
}

func TestBuildWholeProgramsVerify(t *testing.T) {
	srcs := map[string]string{
		"nested loops": `
int g;
void main() {
	int i; int j;
	for (i = 0; i < 10; i++) {
		for (j = 0; j < 10; j++) {
			g = g + i * j;
		}
	}
	print(g);
}`,
		"calls and pointers": `
int x; int y;
int addx(int k) { x += k; return x; }
void main() {
	int* p = &y;
	int i;
	for (i = 0; i < 5; i++) {
		*p = addx(i);
	}
	print(x + y);
}`,
		"breaks and continues": `
int g;
void main() {
	int i;
	for (i = 0; i < 100; i++) {
		if (i % 3 == 0) continue;
		if (i > 50) break;
		g += i;
	}
	print(g);
}`,
		"structs and arrays": `
struct acc { int lo; int hi; };
struct acc a;
int tab[16];
void main() {
	int i;
	for (i = 0; i < 16; i++) {
		tab[i] = i * i;
		if (tab[i] < 100) { a.lo += tab[i]; } else { a.hi += tab[i]; }
	}
	print(a.lo); print(a.hi);
}`,
	}
	for name, src := range srcs {
		t.Run(name, func(t *testing.T) {
			buildSSA(t, src)
		})
	}
}

// TestBuildRejectsSSAInput: Build on a function already in SSA form
// must fail without touching it. Renaming cannot tell an existing phi's
// pre-SSA name, so it used to rename every such phi as register 0 and
// leave memphis whose operands name versions that were never defined.
func TestBuildRejectsSSAInput(t *testing.T) {
	prog := buildSSA(t, `
int g;
void main() {
	int i; int s = 0;
	for (i = 0; i < 10; i++) { g = g + i; s = s + g; }
	print(s);
}`)
	f := prog.Func("main")
	if countOp(f, ir.OpPhi) == 0 || countOp(f, ir.OpMemPhi) == 0 {
		t.Fatalf("precondition: want a phi and a memphi\n%s", f)
	}
	before := f.String()
	if _, err := Build(f); err == nil {
		t.Fatalf("Build accepted a function already in SSA form:\n%s", f)
	}
	if after := f.String(); after != before {
		t.Errorf("rejected Build changed the function:\n--- before\n%s\n--- after\n%s", before, after)
	}

	// A memphi alone is enough to reject.
	for _, b := range f.Blocks {
		for _, in := range append([]*ir.Instr(nil), b.Instrs...) {
			if in.Op == ir.OpPhi {
				b.Remove(in)
			}
		}
	}
	dom := cfg.BuildDomTree(f)
	if err := BuildWith(f, dom, cfg.BuildDomFrontiers(dom)); err == nil {
		t.Fatal("BuildWith accepted a function with a memphi")
	}
}
