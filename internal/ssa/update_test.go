package ssa

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// figure9 builds the CFG of the paper's Example 2 (Figures 9 and 10):
//
//	b0 (entry) -> b1; b1 -> b2, b3; b2 -> b4, b5; b3 -> b5;
//	b4 -> b6; b5 -> b6; b6 -> b1 (back edge), b6 -> b7 (exit)
//
// Global x has its value defined in b1 (version x.1, the paper's x0)
// and used in b3, b4, and b5. The test then clones two stores — one in
// b2 (x.2, the paper's x1) and one in b3 before its use (x.3, the
// paper's x2) — and runs the incremental update.
type figure9 struct {
	f                          *ir.Function
	x                          ir.ResourceID // base
	v1, v2, v3                 ir.ResourceID
	b                          []*ir.Block
	defB1, useB3, useB4, useB5 *ir.Instr
	cloneB2, cloneB3           *ir.Instr
}

func buildFigure9(t *testing.T) *figure9 {
	t.Helper()
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "fig9")
	base := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))

	fg := &figure9{f: f, x: base.ID}
	for i := 0; i < 8; i++ {
		fg.b = append(fg.b, f.NewBlock())
	}
	b := fg.b
	edge := ir.AddEdge
	edge(b[0], b[1])
	edge(b[1], b[2])
	edge(b[1], b[3])
	edge(b[2], b[4])
	edge(b[2], b[5]) // the paper's deliberately unsplit edge
	edge(b[3], b[5])
	edge(b[4], b[6])
	edge(b[5], b[6])
	edge(b[6], b[1])
	edge(b[6], b[7])

	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	b[0].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	v1 := f.NewVersion(base.ID)
	fg.v1 = v1.ID
	fg.defB1 = ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(10))
	fg.defB1.Loc = ir.GlobalLoc(g, 0)
	fg.defB1.MemDefs = []ir.MemRef{{Res: v1.ID}}
	b[1].Append(fg.defB1)
	b[1].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))

	b[2].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))

	newLoad := func(use ir.ResourceID) *ir.Instr {
		r := f.NewReg("")
		ld := ir.NewInstr(ir.OpLoad, r)
		ld.Loc = ir.GlobalLoc(g, 0)
		ld.MemUses = []ir.MemRef{{Res: use}}
		return ld
	}
	fg.useB3 = newLoad(v1.ID)
	b[3].Append(fg.useB3)
	b[3].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	fg.useB4 = newLoad(v1.ID)
	b[4].Append(fg.useB4)
	b[4].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	fg.useB5 = newLoad(v1.ID)
	b[5].Append(fg.useB5)
	b[5].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	b[6].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	ret := ir.NewInstr(ir.OpRet, ir.NoReg)
	b[7].Append(ret)

	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("figure 9 base program invalid: %v", err)
	}
	return fg
}

// cloneStores inserts the two cloned definitions of x: one at the end
// of b2 and one in b3 before its use.
func (fg *figure9) cloneStores(t *testing.T) {
	t.Helper()
	f := fg.f
	g := f.Res(fg.x).Loc.Global

	v2 := f.NewVersion(fg.x)
	fg.v2 = v2.ID
	fg.cloneB2 = ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(20))
	fg.cloneB2.Loc = ir.GlobalLoc(g, 0)
	fg.cloneB2.MemDefs = []ir.MemRef{{Res: v2.ID}}
	fg.b[2].InsertBeforeTerm(fg.cloneB2)

	v3 := f.NewVersion(fg.x)
	fg.v3 = v3.ID
	fg.cloneB3 = ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(30))
	fg.cloneB3.Loc = ir.GlobalLoc(g, 0)
	fg.cloneB3.MemDefs = []ir.MemRef{{Res: v3.ID}}
	fg.b[3].InsertBefore(fg.cloneB3, fg.useB3)
}

func TestUpdateFigure9(t *testing.T) {
	fg := buildFigure9(t)
	fg.cloneStores(t)
	f := fg.f

	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	livePhis, err := UpdateForClonedResources(f, dom, df,
		[]ir.ResourceID{fg.v1}, []ir.ResourceID{fg.v2, fg.v3})
	if err != nil {
		t.Fatal(err)
	}

	// The use in b3 sits after the cloned store there: renamed to v3
	// (the paper's x2).
	if got := fg.useB3.MemUses[0].Res; got != fg.v3 {
		t.Errorf("use in b3 renamed to %s, want %s", f.Res(got), f.Res(fg.v3))
	}
	// The use in b4 is reached only by the b2 clone: renamed to v2 (x1).
	if got := fg.useB4.MemUses[0].Res; got != fg.v2 {
		t.Errorf("use in b4 renamed to %s, want %s", f.Res(got), f.Res(fg.v2))
	}
	// The use in b5 joins b2's and b3's clones: a phi target (x3).
	gotB5 := fg.useB5.MemUses[0].Res
	var phiB5 *ir.Instr
	for _, in := range fg.b[5].Phis() {
		if in.Op == ir.OpMemPhi {
			phiB5 = in
		}
	}
	if phiB5 == nil {
		t.Fatalf("no memphi in b5:\n%s", f)
	}
	if gotB5 != phiB5.MemDefs[0].Res {
		t.Errorf("use in b5 = %s, want the b5 phi target %s",
			f.Res(gotB5), f.Res(phiB5.MemDefs[0].Res))
	}
	ops := map[ir.ResourceID]bool{}
	for _, u := range phiB5.MemUses {
		ops[u.Res] = true
	}
	if !ops[fg.v2] || !ops[fg.v3] || len(ops) != 2 {
		t.Errorf("b5 phi merges %v, want {%s, %s}", ops, f.Res(fg.v2), f.Res(fg.v3))
	}

	// The phis at b1 and b6 (also in the IDF) are dead and must have
	// been removed, along with the original store in b1 whose version
	// no longer has uses — the cascade the paper describes.
	for _, blk := range []*ir.Block{fg.b[1], fg.b[6]} {
		for _, in := range blk.Phis() {
			if in.Op == ir.OpMemPhi {
				t.Errorf("dead memphi survived in %v", blk)
			}
		}
	}
	if fg.defB1.Parent != nil {
		t.Error("original store in b1 should have been deleted (its version has no uses)")
	}

	// Exactly one live phi (b5) was reported.
	if len(livePhis) != 1 || livePhis[0] != phiB5 {
		t.Errorf("live phis = %v, want [b5 phi]", livePhis)
	}

	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("post-update SSA invalid: %v\n%s", err, f)
	}
	if err := VerifyDominance(f); err != nil {
		t.Fatalf("post-update dominance: %v\n%s", err, f)
	}
}

func TestUpdateKeepsOldDefWithRemainingUses(t *testing.T) {
	// Same CFG, but with an extra use of x.1 in b1 right after its def
	// (before any clone can reach it) — the old def must survive.
	fg := buildFigure9(t)
	f := fg.f
	g := f.Res(fg.x).Loc.Global
	r := f.NewReg("")
	keep := ir.NewInstr(ir.OpLoad, r)
	keep.Loc = ir.GlobalLoc(g, 0)
	keep.MemUses = []ir.MemRef{{Res: fg.v1}}
	fg.b[1].InsertBefore(keep, fg.b[1].Term())
	fg.cloneStores(t)

	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	if _, err := UpdateForClonedResources(f, dom, df,
		[]ir.ResourceID{fg.v1}, []ir.ResourceID{fg.v2, fg.v3}); err != nil {
		t.Fatal(err)
	}
	if fg.defB1.Parent == nil {
		t.Error("store in b1 deleted despite a live use")
	}
	if keep.MemUses[0].Res != fg.v1 {
		t.Errorf("use adjacent to def renamed to %s, want unchanged %s",
			f.Res(keep.MemUses[0].Res), f.Res(fg.v1))
	}
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("post-update SSA invalid: %v", err)
	}
}

func TestUpdateSingleClone(t *testing.T) {
	// Minimal case: def at entry, clone on one arm of a diamond, use at
	// the join. The join needs a phi merging old and new — the paper's
	// "both a new definition and an old one can reach a use" case.
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "m")
	base := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))
	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	ir.AddEdge(b0, b1)
	ir.AddEdge(b0, b2)
	ir.AddEdge(b1, b3)
	ir.AddEdge(b2, b3)

	v1 := f.NewVersion(base.ID)
	def := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(1))
	def.Loc = ir.GlobalLoc(g, 0)
	def.MemDefs = []ir.MemRef{{Res: v1.ID}}
	b0.Append(def)
	b0.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	b1.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b2.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))

	r := f.NewReg("")
	use := ir.NewInstr(ir.OpLoad, r)
	use.Loc = ir.GlobalLoc(g, 0)
	use.MemUses = []ir.MemRef{{Res: v1.ID}}
	b3.Append(use)
	b3.Append(ir.NewInstr(ir.OpRet, ir.NoReg))

	v2 := f.NewVersion(base.ID)
	clone := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(2))
	clone.Loc = ir.GlobalLoc(g, 0)
	clone.MemDefs = []ir.MemRef{{Res: v2.ID}}
	b1.InsertBeforeTerm(clone)

	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	live, err := UpdateForClonedResources(f, dom, df,
		[]ir.ResourceID{v1.ID}, []ir.ResourceID{v2.ID})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 {
		t.Fatalf("want exactly one live phi, got %d\n%s", len(live), f)
	}
	phi := live[0]
	if phi.Parent != b3 {
		t.Errorf("phi placed in %v, want b3", phi.Parent)
	}
	if use.MemUses[0].Res != phi.MemDefs[0].Res {
		t.Error("join use not renamed to phi target")
	}
	ops := map[ir.ResourceID]bool{}
	for _, u := range phi.MemUses {
		ops[u.Res] = true
	}
	if !ops[v1.ID] || !ops[v2.ID] {
		t.Errorf("phi must merge old %s and cloned %s, got %v", v1, v2, ops)
	}
	// def still has a use (through the phi operand) and must survive.
	if def.Parent == nil {
		t.Error("old def deleted although reachable through the phi")
	}
	if err := VerifyDominance(f); err != nil {
		t.Fatalf("post-update: %v", err)
	}
}

func TestUpdateRejectsMixedBases(t *testing.T) {
	p := ir.NewProgram()
	gx := p.AddGlobal("x", 1, false, nil)
	gy := p.AddGlobal("y", 1, false, nil)
	f := ir.NewFunction(p, "m")
	bx := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(gx, 0))
	by := f.AddResource("y", ir.ResScalar, ir.GlobalLoc(gy, 0))
	b := f.NewBlock()
	b.Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	dom := cfg.BuildDomTree(f)
	df := cfg.BuildDomFrontiers(dom)
	if _, err := UpdateForClonedResources(f, dom, df,
		[]ir.ResourceID{bx.ID}, []ir.ResourceID{by.ID}); err == nil {
		t.Fatal("mixed-base update accepted, want error")
	}
}

// twoDiamonds builds two diamonds in sequence, each with a cloned store
// of x on its left arm and a use of the old version x.1 at its join:
//
//	b0 (def x.1) -> b1 (clone x.2), b2 -> b3 (use) -> b4 (clone x.3), b5 -> b6 (use)
//
// An update of {x.1} with clones {x.2, x.3} leaves a live phi at b3
// and another at b6. It returns the function, the old and cloned
// versions, and the definition blocks in block order.
func twoDiamonds(t *testing.T) (*ir.Function, ir.ResourceID, []ir.ResourceID, []*ir.Block) {
	t.Helper()
	p := ir.NewProgram()
	g := p.AddGlobal("x", 1, false, nil)
	f := ir.NewFunction(p, "m")
	base := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(g, 0))
	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	var b []*ir.Block
	for i := 0; i < 7; i++ {
		b = append(b, f.NewBlock())
	}
	for _, e := range [][2]int{{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {3, 5}, {4, 6}, {5, 6}} {
		ir.AddEdge(b[e[0]], b[e[1]])
	}
	store := func(v ir.ResourceID, c int64) *ir.Instr {
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(c))
		st.Loc = ir.GlobalLoc(g, 0)
		st.MemDefs = []ir.MemRef{{Res: v}}
		return st
	}
	load := func(v ir.ResourceID) *ir.Instr {
		ld := ir.NewInstr(ir.OpLoad, f.NewReg(""))
		ld.Loc = ir.GlobalLoc(g, 0)
		ld.MemUses = []ir.MemRef{{Res: v}}
		return ld
	}
	v1 := f.NewVersion(base.ID).ID
	b[0].Append(store(v1, 1))
	b[0].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	b[1].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b[2].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b[3].Append(load(v1))
	b[3].Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	b[4].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b[5].Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b[6].Append(load(v1))
	b[6].Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("two-diamond program invalid: %v", err)
	}

	v2 := f.NewVersion(base.ID).ID
	b[1].InsertBeforeTerm(store(v2, 2))
	v3 := f.NewVersion(base.ID).ID
	b[4].InsertBeforeTerm(store(v3, 3))
	return f, v1, []ir.ResourceID{v2, v3}, []*ir.Block{b[0], b[1], b[4]}
}

// TestUpdateLivePhiOrderDeterministic: with two phis surviving, the
// update returns them in IDF placement order on every call.
func TestUpdateLivePhiOrderDeterministic(t *testing.T) {
	f, v1, cloned, defBlocks := twoDiamonds(t)
	dom := cfg.BuildDomTree(f)
	var want []ir.BlockID
	for _, b := range cfg.IteratedDF(cfg.BuildDomFrontiers(dom), defBlocks) {
		want = append(want, b.ID)
	}
	if len(want) < 2 {
		t.Fatalf("IDF = %v, want at least two blocks", want)
	}
	for call := 0; call < 50; call++ {
		g := f.Clone()
		gdom := cfg.BuildDomTree(g)
		live, err := UpdateForClonedResources(g, gdom, cfg.BuildDomFrontiers(gdom), []ir.ResourceID{v1}, cloned)
		if err != nil {
			t.Fatal(err)
		}
		var got []ir.BlockID
		for _, phi := range live {
			got = append(got, phi.Parent.ID)
		}
		if len(got) != len(want) {
			t.Fatalf("call %d: live phis in %v, want %v\n%s", call, got, want, g)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("call %d: live phis in %v, want IDF order %v", call, got, want)
			}
		}
	}
}

// TestUpdateSweepScopedToBase: the dead-definition sweep deletes only
// versions of the updated base. A dead store and a dead memphi of an
// unrelated base y survive an update of x.
func TestUpdateSweepScopedToBase(t *testing.T) {
	p := ir.NewProgram()
	gx := p.AddGlobal("x", 1, false, nil)
	gy := p.AddGlobal("y", 1, false, nil)
	f := ir.NewFunction(p, "m")
	bx := f.AddResource("x", ir.ResScalar, ir.GlobalLoc(gx, 0))
	by := f.AddResource("y", ir.ResScalar, ir.GlobalLoc(gy, 0))
	cond := f.NewReg("c")
	f.Params = []ir.RegID{cond}

	b0, b1, b2, b3 := f.NewBlock(), f.NewBlock(), f.NewBlock(), f.NewBlock()
	ir.AddEdge(b0, b1)
	ir.AddEdge(b0, b2)
	ir.AddEdge(b1, b3)
	ir.AddEdge(b2, b3)
	store := func(g *ir.Global, v ir.ResourceID, c int64) *ir.Instr {
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.ConstVal(c))
		st.Loc = ir.GlobalLoc(g, 0)
		st.MemDefs = []ir.MemRef{{Res: v}}
		return st
	}

	x1 := f.NewVersion(bx.ID).ID
	b0.Append(store(gx, x1, 1))
	b0.Append(ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(cond)))
	// y.1 is stored on one arm and merged at the join by y.2, and
	// nothing reads either: both definitions are dead.
	y1 := f.NewVersion(by.ID).ID
	deadStore := store(gy, y1, 7)
	b1.Append(deadStore)
	b1.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	b2.Append(ir.NewInstr(ir.OpJmp, ir.NoReg))
	y2 := f.NewVersion(by.ID).ID
	deadPhi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
	deadPhi.MemDefs = []ir.MemRef{{Res: y2}}
	deadPhi.MemUses = []ir.MemRef{{Res: y1}, {Res: by.ID}}
	b3.InsertPhi(deadPhi)
	use := ir.NewInstr(ir.OpLoad, f.NewReg(""))
	use.Loc = ir.GlobalLoc(gx, 0)
	use.MemUses = []ir.MemRef{{Res: x1}}
	b3.Append(use)
	b3.Append(ir.NewInstr(ir.OpRet, ir.NoReg))
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("program invalid: %v", err)
	}

	x2 := f.NewVersion(bx.ID).ID
	b1.InsertBeforeTerm(store(gx, x2, 2))
	dom := cfg.BuildDomTree(f)
	live, err := UpdateForClonedResources(f, dom, cfg.BuildDomFrontiers(dom),
		[]ir.ResourceID{x1}, []ir.ResourceID{x2})
	if err != nil {
		t.Fatal(err)
	}
	if len(live) != 1 || use.MemUses[0].Res != live[0].MemDefs[0].Res {
		t.Fatalf("x update did not merge at the join:\n%s", f)
	}
	if deadStore.Parent != b1 {
		t.Error("dead store of y deleted by an update of x")
	}
	if deadPhi.Parent != b3 {
		t.Error("dead memphi of y deleted by an update of x")
	}
	if deadPhi.MemUses[0].Res != y1 || deadPhi.MemUses[1].Res != by.ID {
		t.Errorf("y memphi operands changed: %v", deadPhi.MemUses)
	}
	if err := f.Verify(ir.VerifySSA); err != nil {
		t.Fatalf("post-update SSA invalid: %v\n%s", err, f)
	}
}
