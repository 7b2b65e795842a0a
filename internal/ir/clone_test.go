package ir_test

import (
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/workload"
)

// buildCloneFixture makes a small two-block function with a slot, a
// global, resources, a phi, and memory references — one of everything
// Clone has to copy.
func buildCloneFixture() (*ir.Program, *ir.Function) {
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "main")
	slot := f.NewSlot("a", 1, false, nil)
	res := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))

	r0 := f.NewReg("t")
	r1 := f.NewReg("u")
	r2 := f.NewReg("phi")

	b0, b1 := f.NewBlock(), f.NewBlock()
	ir.AddEdge(b0, b1)
	ir.AddEdge(b1, b1)

	ld := ir.NewInstr(ir.OpLoad, r0)
	ld.Loc = ir.GlobalLoc(g, 0)
	ld.MemUses = []ir.MemRef{{Res: res.ID}}
	b0.Append(ld)
	st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.RegVal(r0))
	st.Loc = ir.SlotLoc(slot, 0)
	st.MemDefs = []ir.MemRef{{Res: res.ID}}
	b0.Append(st)
	b0.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	phi := ir.NewInstr(ir.OpPhi, r2, ir.RegVal(r0), ir.RegVal(r2))
	b1.Append(phi)
	b1.Append(ir.NewInstr(ir.OpAdd, r1, ir.RegVal(r2), ir.ConstVal(1)))
	b1.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(r1)))
	// Make b1 a proper 2-succ branch target: b1 -> b1 already; add exit.
	b2 := f.NewBlock()
	ir.AddEdge(b1, b2)
	b2.Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	return p, f
}

func TestClonePrintsIdentically(t *testing.T) {
	_, f := buildCloneFixture()
	c := f.Clone()
	if got, want := c.String(), f.String(); got != want {
		t.Fatalf("clone prints differently:\n--- original\n%s\n--- clone\n%s", want, got)
	}
	if err := c.Verify(ir.VerifyCFG); err != nil {
		t.Fatalf("clone fails verify: %v", err)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	_, f := buildCloneFixture()
	c := f.Clone()

	// Mutating the original must not affect the clone.
	before := c.String()
	f.Entry().Instrs[0].Op = ir.OpDummyLoad
	f.Entry().Instrs[0].MemUses = nil
	f.Resources[0].Name = "mutated"
	f.Slots[0].Name = "mutated"
	if c.String() != before {
		t.Fatal("mutating original leaked into clone")
	}

	// The clone's blocks, instrs, slots, and resources are fresh objects.
	if c.Entry() == f.Entry() {
		t.Fatal("clone shares blocks")
	}
	if c.Slots[0] == f.Slots[0] {
		t.Fatal("clone shares slots")
	}
	if c.Resources[0] == f.Resources[0] {
		t.Fatal("clone shares resources")
	}
	for _, b := range c.Blocks {
		if b.Func != c {
			t.Fatalf("clone block %v points at wrong function", b)
		}
		for _, in := range b.Instrs {
			if in.Parent != b {
				t.Fatalf("clone instr in %v has wrong parent", b)
			}
			if in.Loc.Kind == ir.LocSlot && in.Loc.Slot == f.Slots[0] {
				t.Fatal("clone instruction references original slot")
			}
		}
	}
}

func TestCloneSharesGlobals(t *testing.T) {
	p, f := buildCloneFixture()
	c := f.Clone()
	orig := f.Entry().Instrs[0].Loc.Global
	cl := c.Entry().Instrs[0].Loc.Global
	if orig != cl || cl != p.Globals[0] {
		t.Fatal("clone must share Global objects with the program")
	}
}

func TestReplaceFunction(t *testing.T) {
	p, f := buildCloneFixture()
	c := f.Clone()
	p.ReplaceFunction(c)
	if p.Func("main") != c {
		t.Fatal("ReplaceFunction did not update the name index")
	}
	found := false
	for _, fn := range p.Funcs {
		if fn == f {
			t.Fatal("original function still registered")
		}
		if fn == c {
			found = true
		}
	}
	if !found {
		t.Fatal("replacement not in Funcs")
	}
	if c.Prog != p {
		t.Fatal("replacement Prog pointer not set")
	}
}

// analyzed compiles src and runs alias analysis on it.
func analyzed(t *testing.T, src string) *ir.Program {
	t.Helper()
	p, err := source.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(p); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return p
}

// forEachLoc calls visit on every memory location f references, in its
// resource table and on its instructions.
func forEachLoc(f *ir.Function, visit func(ir.MemLoc)) {
	for _, r := range f.Resources {
		visit(r.Loc)
	}
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			visit(in.Loc)
		}
	}
}

// TestCloneIntoRebindsGlobals clones every function of one compile into
// a second, independent compile of the same source: the copies must name only the
// target's globals, print like the originals, and leave the target
// printing exactly as it did once swapped in.
func TestCloneIntoRebindsGlobals(t *testing.T) {
	w, ok := workload.ByName("go")
	if !ok {
		t.Fatal("workload go missing")
	}
	a, b := analyzed(t, w.Src), analyzed(t, w.Src)
	owned := make(map[*ir.Global]bool, len(b.Globals))
	for _, g := range b.Globals {
		owned[g] = true
	}
	want := b.String()

	var clones []*ir.Function
	sawGlobal := false
	for _, f := range a.Funcs {
		c := f.CloneInto(b)
		if c.Prog != b {
			t.Fatalf("%s: clone's Prog is not the target program", f.Name)
		}
		if got, want := c.String(), f.String(); got != want {
			t.Fatalf("%s: clone prints differently:\n--- original\n%s\n--- clone\n%s", f.Name, want, got)
		}
		forEachLoc(c, func(l ir.MemLoc) {
			if l.Kind != ir.LocGlobal {
				return
			}
			sawGlobal = true
			if !owned[l.Global] {
				t.Fatalf("%s: location %v names a global outside the target program", f.Name, l)
			}
		})
		clones = append(clones, c)
	}
	if !sawGlobal {
		t.Fatal("fixture references no globals; the test proves nothing")
	}
	if got := b.String(); got != want {
		t.Fatal("cloning into the target program changed it")
	}
	for _, c := range clones {
		b.ReplaceFunction(c)
	}
	if got := b.String(); got != want {
		t.Fatalf("target program prints differently with the clones swapped in:\n--- want\n%s\n--- got\n%s", want, got)
	}
}

// TestCloneIntoPanicsOnMismatchedGlobals: a target whose globals differ
// by name or count is not a compile of the same source.
func TestCloneIntoPanicsOnMismatchedGlobals(t *testing.T) {
	const src = "int x; int y; void main() { x = 1; y = x; print(y); }"
	for _, tc := range []struct {
		name  string
		other string
	}{
		{"renamed", "int x; int z; void main() { x = 1; z = x; print(z); }"},
		{"fewer", "int x; void main() { x = 1; print(x); }"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, b := analyzed(t, src), analyzed(t, tc.other)
			defer func() {
				rec := recover()
				if rec == nil {
					t.Fatal("CloneInto accepted a program with different globals")
				}
				if msg, _ := rec.(string); !strings.Contains(msg, "CloneInto") {
					t.Fatalf("panic value %v does not name CloneInto", rec)
				}
			}()
			a.Func("main").CloneInto(b)
		})
	}
}
