package regalloc_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/workload"
)

// straightLine builds r0=1; r1=2; r2=r0+r1; print r2; ret — r0 and r1
// overlap, r2 overlaps neither at definition time.
func TestStraightLineInterference(t *testing.T) {
	p := ir.NewProgram()
	f := ir.NewFunction(p, "s")
	r0, r1, r2 := f.NewReg("a"), f.NewReg("b"), f.NewReg("c")
	b := f.NewBlock()
	b.Append(ir.NewInstr(ir.OpCopy, r0, ir.ConstVal(1)))
	b.Append(ir.NewInstr(ir.OpCopy, r1, ir.ConstVal(2)))
	b.Append(ir.NewInstr(ir.OpAdd, r2, ir.RegVal(r0), ir.RegVal(r1)))
	b.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(r2)))
	b.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	res := regalloc.Allocate(f)
	if res.Colors != 2 {
		t.Errorf("colors = %d, want 2", res.Colors)
	}
	if res.MaxLive != 2 {
		t.Errorf("maxlive = %d, want 2", res.MaxLive)
	}
	if res.Assignment[r0] == res.Assignment[r1] {
		t.Error("overlapping registers share a color")
	}
}

func TestCopyDoesNotInterfere(t *testing.T) {
	// d = copy s with s dead after: d and s can share a color.
	p := ir.NewProgram()
	f := ir.NewFunction(p, "c")
	s, d := f.NewReg("s"), f.NewReg("d")
	b := f.NewBlock()
	b.Append(ir.NewInstr(ir.OpCopy, s, ir.ConstVal(7)))
	b.Append(ir.NewInstr(ir.OpCopy, d, ir.RegVal(s)))
	b.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(d)))
	b.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	res := regalloc.Allocate(f)
	if res.Colors != 1 {
		t.Errorf("colors = %d, want 1 (copy-related values coalesce)", res.Colors)
	}
}

func TestDisjointLiveRangesShareColors(t *testing.T) {
	// Two values never simultaneously live need one color.
	p := ir.NewProgram()
	f := ir.NewFunction(p, "d")
	a, bb := f.NewReg("a"), f.NewReg("b")
	blk := f.NewBlock()
	blk.Append(ir.NewInstr(ir.OpCopy, a, ir.ConstVal(1)))
	blk.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(a)))
	blk.Append(ir.NewInstr(ir.OpCopy, bb, ir.ConstVal(2)))
	blk.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(bb)))
	blk.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	res := regalloc.Allocate(f)
	if res.Colors != 1 {
		t.Errorf("colors = %d, want 1", res.Colors)
	}
}

func TestLoopCarriedLiveness(t *testing.T) {
	// A value live around a loop back edge interferes with loop-body
	// temporaries.
	p := ir.NewProgram()
	f := ir.NewFunction(p, "l")
	n := f.NewReg("n")
	f.Params = []ir.RegID{n}
	acc, tmp, cond := f.NewReg("acc"), f.NewReg("tmp"), f.NewReg("cond")
	entry, header, body, exit := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	entry.Append(ir.NewInstr(ir.OpCopy, acc, ir.ConstVal(0)))
	entry.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	ir.AddEdge(entry, header)
	header.Append(ir.NewInstr(ir.OpLt, cond, ir.RegVal(acc), ir.RegVal(n)))
	header.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	ir.AddEdge(header, body)
	ir.AddEdge(header, exit)
	body.Append(ir.NewInstr(ir.OpAdd, tmp, ir.RegVal(acc), ir.ConstVal(3)))
	body.Append(ir.NewInstr(ir.OpCopy, acc, ir.RegVal(tmp)))
	body.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	ir.AddEdge(body, header)
	exit.Append(ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(acc)))
	exit.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	res := regalloc.Allocate(f)
	// n and acc are simultaneously live through the loop.
	if res.Assignment[n] == res.Assignment[acc] {
		t.Error("n and acc interfere but share a color")
	}
	if res.Colors < 2 {
		t.Errorf("colors = %d, want >= 2", res.Colors)
	}
}

// TestColorsAtLeastMaxLive checks the lower bound on the four-global
// loop and on every suite routine, unpromoted and promoted. The suite
// includes routines whose parameters are live together on entry.
func TestColorsAtLeastMaxLive(t *testing.T) {
	check := func(name, src string, opts pipeline.Options) {
		t.Helper()
		out, err := pipeline.Run(src, opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, f := range out.Prog.Funcs {
			res := regalloc.Allocate(f)
			if res.Colors < res.MaxLive {
				t.Errorf("%s/%s (%v): colors %d < maxlive %d (impossible)",
					name, f.Name, opts.Algorithm, res.Colors, res.MaxLive)
			}
		}
	}
	check("loop", `
int a; int b; int c; int d;
void main() {
	int i;
	for (i = 0; i < 50; i++) {
		a += i; b += a; c += b; d += c;
	}
	print(a + b + c + d);
}`, pipeline.Options{})
	for _, w := range workload.Suite() {
		for _, alg := range []pipeline.Algorithm{pipeline.AlgNone, pipeline.AlgSSA} {
			check(w.Name, w.Src, pipeline.Options{Algorithm: alg, SkipMeasurement: true})
		}
	}
}

// TestPromotionIncreasesPressure reproduces the direction of the
// paper's Table 3: promoting four globals held in registers through a
// loop raises the color count relative to the unpromoted program.
func TestPromotionIncreasesPressure(t *testing.T) {
	src := `
int a; int b; int c; int d;
void main() {
	int i;
	for (i = 0; i < 50; i++) {
		a += i; b += a; c += b; d += c;
	}
	print(a + b + c + d);
}`
	unpromoted, err := pipeline.Run(src, pipeline.Options{Algorithm: pipeline.AlgNone})
	if err != nil {
		t.Fatal(err)
	}
	promoted, err := pipeline.Run(src, pipeline.Options{Algorithm: pipeline.AlgSSA})
	if err != nil {
		t.Fatal(err)
	}
	before := regalloc.Allocate(unpromoted.Prog.Func("main"))
	after := regalloc.Allocate(promoted.Prog.Func("main"))
	if after.Colors <= before.Colors {
		t.Errorf("promotion should raise pressure: before %d colors, after %d",
			before.Colors, after.Colors)
	}
}

func TestAllocateProgramDeterministicOrder(t *testing.T) {
	out, err := pipeline.Run(`
int g;
void zebra() { g++; }
void apple() { g--; }
void main() { zebra(); apple(); }`, pipeline.Options{SkipMeasurement: true})
	if err != nil {
		t.Fatal(err)
	}
	_, names := regalloc.AllocateProgram(out.Prog)
	want := []string{"apple", "main", "zebra"}
	if len(names) != 3 {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("names = %v, want %v", names, want)
		}
	}
}

// TestDeadDefinitionIsANode pins what Nodes counts: every register the
// function defines or uses, live or not. Medium corpus entry 38 of seed
// 1 compiles helper2 unpromoted to a single dead `r0 = copy #26`: the
// register is never live (MaxLive 0) but is still a node, and it takes
// one color.
func TestDeadDefinitionIsANode(t *testing.T) {
	w := workload.CorpusEntry(1, 38)
	out, err := pipeline.Run(w.Src, pipeline.Options{Algorithm: pipeline.AlgNone, SkipMeasurement: true})
	if err != nil {
		t.Fatal(err)
	}
	f := out.Prog.Func("helper2")
	if f == nil {
		t.Fatalf("%s has no helper2", w.Name)
	}
	res := regalloc.Allocate(f)
	if res.Nodes != 1 || res.Colors != 1 || res.MaxLive != 0 || res.Edges != 0 {
		t.Fatalf("%s/helper2: nodes %d colors %d maxlive %d edges %d, want 1 1 0 0\n%s",
			w.Name, res.Nodes, res.Colors, res.MaxLive, res.Edges, f)
	}
	for r, c := range res.Assignment {
		if c != 0 {
			t.Errorf("register r%d has color %d, want 0", r, c)
		}
	}
}
