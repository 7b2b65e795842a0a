// Package ssa converts IR functions into and out of Static Single
// Assignment form, for both virtual registers and memory resources, and
// implements the register promotion paper's incremental SSA update for
// cloned definitions (its Figure 11 algorithm).
//
// After Build, every register has one definition, every memory resource
// reference names a versioned resource, Phi instructions join register
// values, and MemPhi instructions join memory versions. Version 0 of a
// base resource denotes the location's value on function entry (the
// live-in value); it has no defining instruction.
package ssa

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// Build converts f to SSA form. The CFG must already be normalized
// (critical edges split); Build does not change the block graph. It
// returns the dominator tree it computed, which callers typically reuse.
func Build(f *ir.Function) (*cfg.DomTree, error) {
	cfg.RemoveUnreachable(f)
	dom := cfg.BuildDomTree(f)
	if err := BuildWith(f, dom, cfg.BuildDomFrontiers(dom)); err != nil {
		return nil, err
	}
	return dom, nil
}

// BuildWith converts f to SSA form using prebuilt analyses. dom and df
// must describe f's current CFG (the pipeline supplies them from its
// analysis cache); unreachable blocks must already be removed. f must
// not be in SSA form already: a function that contains a phi or memphi
// is rejected before anything is changed.
func BuildWith(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers) error {
	b := &builder{f: f, dom: dom, df: df}
	if err := b.run(); err != nil {
		return err
	}
	PruneTrivialPhis(f)
	return nil
}

type builder struct {
	f   *ir.Function
	dom *cfg.DomTree
	df  cfg.DomFrontiers

	// regStacks[orig] is the renaming stack of the pre-SSA register
	// orig; resStacks[base] is the version stack of base resource base.
	regStacks [][]ir.RegID
	resStacks [][]ir.ResourceID

	// numRegs is the register count before renaming: every register
	// below it is a pre-SSA name, every one at or above it a renamed
	// definition, whose pre-SSA name is origOf[r-numRegs].
	numRegs int
	origOf  []ir.RegID
}

func (b *builder) run() error {
	f := b.f

	// Collect definition sites, densely indexed by register and resource
	// number so the phi-placement loops below iterate in ID order with no
	// map traffic (and no map iteration order anywhere near the output).
	regDefs := make([][]*ir.Block, f.NumRegs)
	resDefs := make([][]*ir.Block, len(f.Resources))
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op.IsPhi() {
				return fmt.Errorf("ssa: %s: already in SSA form (%s in %v)", f.Name, in.Op, blk)
			}
			if in.HasDst() {
				regDefs[in.Dst] = appendUnique(regDefs[in.Dst], blk)
			}
			for _, d := range in.MemDefs {
				resDefs[d.Res] = appendUnique(resDefs[d.Res], blk)
			}
		}
	}

	// Place phis at iterated dominance frontiers. A register phi's Dst
	// and a memphi's definition name what they merge until renaming
	// gives them fresh names. Spurious phis merging a single reaching
	// definition are cleaned by PruneTrivialPhis.
	for r := 0; r < f.NumRegs; r++ {
		reg := ir.RegID(r)
		defs := regDefs[reg]
		if len(defs) == 0 {
			continue
		}
		for _, jb := range cfg.IteratedDF(b.df, defs) {
			jb.InsertPhi(ir.NewInstr(ir.OpPhi, reg, make([]ir.Value, len(jb.Preds))...))
		}
	}
	for id := 0; id < len(f.Resources); id++ {
		base := ir.ResourceID(id)
		defs := resDefs[base]
		if len(defs) == 0 {
			continue
		}
		for _, jb := range cfg.IteratedDF(b.df, defs) {
			phi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
			phi.MemDefs = []ir.MemRef{{Res: base}}
			phi.MemUses = make([]ir.MemRef, len(jb.Preds))
			for i := range phi.MemUses {
				phi.MemUses[i] = ir.MemRef{Res: ir.NoResource}
			}
			jb.InsertPhi(phi)
		}
	}

	// Rename along the dominator tree.
	b.numRegs = f.NumRegs
	b.regStacks = make([][]ir.RegID, f.NumRegs)
	b.resStacks = make([][]ir.ResourceID, len(f.Resources))
	for _, p := range f.Params {
		// Parameters are their own first SSA version.
		b.regStacks[p] = []ir.RegID{p}
	}
	if err := b.rename(f.Entry()); err != nil {
		return err
	}
	return nil
}

func appendUnique(bs []*ir.Block, b *ir.Block) []*ir.Block {
	for _, x := range bs {
		if x == b {
			return bs
		}
	}
	return append(bs, b)
}

func (b *builder) topReg(orig ir.RegID) (ir.RegID, bool) {
	st := b.regStacks[orig]
	if len(st) == 0 {
		return ir.NoReg, false
	}
	return st[len(st)-1], true
}

func (b *builder) topRes(base ir.ResourceID) ir.ResourceID {
	st := b.resStacks[base]
	if len(st) == 0 {
		return base // version 0: live-in value
	}
	return st[len(st)-1]
}

// phiOrig returns the pre-SSA register a register phi merges, whether
// or not renaming has reached the phi yet.
func (b *builder) phiOrig(phi *ir.Instr) ir.RegID {
	if int(phi.Dst) < b.numRegs {
		return phi.Dst
	}
	return b.origOf[int(phi.Dst)-b.numRegs]
}

// newReg allocates the SSA name of a definition of orig.
func (b *builder) newReg(orig ir.RegID) ir.RegID {
	b.origOf = append(b.origOf, orig)
	return b.f.NewReg(b.f.RegName(orig))
}

func (b *builder) rename(blk *ir.Block) error {
	f := b.f
	var pushedRegs []ir.RegID
	var pushedRes []ir.ResourceID

	pushReg := func(orig ir.RegID, name ir.RegID) {
		b.regStacks[orig] = append(b.regStacks[orig], name)
		pushedRegs = append(pushedRegs, orig)
	}
	pushRes := func(base ir.ResourceID, ver ir.ResourceID) {
		b.resStacks[base] = append(b.resStacks[base], ver)
		pushedRes = append(pushedRes, base)
	}

	for _, in := range blk.Instrs {
		switch in.Op {
		case ir.OpPhi:
			orig := in.Dst
			in.Dst = b.newReg(orig)
			pushReg(orig, in.Dst)
			continue
		case ir.OpMemPhi:
			base := f.BaseOf(in.MemDefs[0].Res).ID
			nv := f.NewVersion(base)
			in.MemDefs[0].Res = nv.ID
			pushRes(base, nv.ID)
			continue
		}
		// Ordinary instruction: rewrite register uses.
		for i, a := range in.Args {
			if a.IsConst() {
				continue
			}
			cur, ok := b.topReg(a.Reg())
			if !ok {
				return fmt.Errorf("ssa: %s: register r%d used before definition in %v",
					f.Name, a.Reg(), blk)
			}
			in.Args[i] = ir.RegVal(cur)
		}
		// Rewrite memory uses to current versions.
		for i := range in.MemUses {
			in.MemUses[i].Res = b.topRes(in.MemUses[i].Res)
		}
		// Rewrite register definition.
		if in.HasDst() {
			orig := in.Dst
			in.Dst = b.newReg(orig)
			pushReg(orig, in.Dst)
		}
		// Rewrite memory definitions to fresh versions.
		for i := range in.MemDefs {
			base := in.MemDefs[i].Res
			nv := f.NewVersion(base)
			in.MemDefs[i].Res = nv.ID
			pushRes(f.BaseOf(nv.ID).ID, nv.ID)
		}
	}

	// Fill phi operands in successors.
	for _, s := range blk.Succs {
		pi := s.PredIndex(blk)
		for _, phi := range s.Phis() {
			switch phi.Op {
			case ir.OpPhi:
				if cur, ok := b.topReg(b.phiOrig(phi)); ok {
					phi.Args[pi] = ir.RegVal(cur)
				} else {
					// The merged variable is undefined along this path;
					// its value can never be observed, so any operand
					// is sound.
					phi.Args[pi] = ir.ConstVal(0)
				}
			case ir.OpMemPhi:
				phi.MemUses[pi] = ir.MemRef{Res: b.topRes(f.BaseOf(phi.MemDefs[0].Res).ID)}
			}
		}
	}

	for _, c := range b.dom.Children(blk) {
		if err := b.rename(c); err != nil {
			return err
		}
	}

	for _, orig := range pushedRegs {
		st := b.regStacks[orig]
		b.regStacks[orig] = st[:len(st)-1]
	}
	for _, base := range pushedRes {
		st := b.resStacks[base]
		b.resStacks[base] = st[:len(st)-1]
	}
	return nil
}
