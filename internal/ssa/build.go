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
	"slices"

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
	idf cfg.IDF

	// curReg[orig] is the current SSA name of the pre-SSA register orig
	// (NoReg before its first definition on the dominator-tree path);
	// curRes[base] is the current version of base resource base. undo
	// logs every overwritten entry, so leaving a dominator subtree
	// restores both slices to the subtree root's mark.
	curReg []ir.RegID
	curRes []ir.ResourceID
	undo   []undoEntry

	// numRegs is the register count before renaming: every register
	// below it is a pre-SSA name, every one at or above it a renamed
	// definition, whose pre-SSA name is origOf[r-numRegs].
	numRegs int
	origOf  []ir.RegID
}

// undoEntry records the value a renaming step overwrote: curRes[idx]
// when res is set, curReg[idx] otherwise.
type undoEntry struct {
	res  bool
	idx  int32
	prev int32
}

// defSite is one block defining a name, in the order the scan meets
// them: the first definition of the name in the block.
type defSite struct {
	name int32
	blk  *ir.Block
}

func (b *builder) run() error {
	f := b.f

	// One scan collects the definition sites and finds the global
	// registers: those some block uses before defining them. Only a
	// global register can be live on entry to a block, so only global
	// registers get phis (semi-pruned SSA, Briggs et al.); a register
	// used only after its definition in the same block never needs one.
	// regIn[r] and resIn[r] hold 1 + the index of the last block that
	// defined r, so a block's first definition of a name is one compare.
	regIn := make([]int32, f.NumRegs)
	resIn := make([]int32, len(f.Resources))
	global := make([]bool, f.NumRegs)
	var regSites, resSites []defSite
	for i, blk := range f.Blocks {
		stamp := int32(i + 1)
		for _, in := range blk.Instrs {
			if in.Op.IsPhi() {
				return fmt.Errorf("ssa: %s: already in SSA form (%s in %v)", f.Name, in.Op, blk)
			}
			for _, a := range in.Args {
				if !a.IsConst() && regIn[a.Reg()] != stamp {
					global[a.Reg()] = true
				}
			}
			if in.HasDst() && regIn[in.Dst] != stamp {
				regIn[in.Dst] = stamp
				regSites = append(regSites, defSite{int32(in.Dst), blk})
			}
			for _, d := range in.MemDefs {
				if resIn[d.Res] != stamp {
					resIn[d.Res] = stamp
					resSites = append(resSites, defSite{int32(d.Res), blk})
				}
			}
		}
	}

	// Place phis at iterated dominance frontiers, visiting names in ID
	// order. A register phi's Dst and a memphi's definition name what
	// they merge until renaming gives them fresh names. Spurious phis
	// merging a single reaching definition are cleaned by
	// PruneTrivialPhis.
	regDefs := groupSites(regSites, f.NumRegs, global)
	for r, defs := range regDefs {
		reg := ir.RegID(r)
		for _, jb := range b.idf.Of(b.df, defs) {
			jb.InsertPhi(ir.NewInstr(ir.OpPhi, reg, make([]ir.Value, len(jb.Preds))...))
		}
	}
	resDefs := groupSites(resSites, len(f.Resources), nil)
	for id, defs := range resDefs {
		base := ir.ResourceID(id)
		for _, jb := range b.idf.Of(b.df, defs) {
			phi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
			phi.MemDefs = []ir.MemRef{{Res: base}}
			phi.MemUses = make([]ir.MemRef, len(jb.Preds))
			for i := range phi.MemUses {
				phi.MemUses[i] = ir.MemRef{Res: ir.NoResource}
			}
			jb.InsertPhi(phi)
		}
	}

	// Rename along the dominator tree. A base resource's version 0 is
	// the base itself: the live-in value.
	b.numRegs = f.NumRegs
	b.curReg = make([]ir.RegID, f.NumRegs)
	for r := range b.curReg {
		b.curReg[r] = ir.NoReg
	}
	for _, p := range f.Params {
		// Parameters are their own first SSA version.
		b.curReg[p] = p
	}
	b.curRes = make([]ir.ResourceID, len(f.Resources))
	for r := range b.curRes {
		b.curRes[r] = ir.ResourceID(r)
	}
	return b.rename(f.Entry())
}

// groupSites buckets the definition sites by name, keeping each name's
// blocks in scan order, for the names keep admits (every name when
// keep is nil). All buckets share one backing array.
func groupSites(sites []defSite, n int, keep []bool) [][]*ir.Block {
	start := make([]int32, n+1)
	for _, s := range sites {
		if keep == nil || keep[s.name] {
			start[s.name+1]++
		}
	}
	for i := 1; i <= n; i++ {
		start[i] += start[i-1]
	}
	blocks := make([]*ir.Block, start[n])
	next := slices.Clone(start[:n])
	for _, s := range sites {
		if keep == nil || keep[s.name] {
			blocks[next[s.name]] = s.blk
			next[s.name]++
		}
	}
	groups := make([][]*ir.Block, n)
	for i := range groups {
		groups[i] = blocks[start[i]:start[i+1]:start[i+1]]
	}
	return groups
}

// phiOrig returns the pre-SSA register a register phi merges, whether
// or not renaming has reached the phi yet.
func (b *builder) phiOrig(phi *ir.Instr) ir.RegID {
	if int(phi.Dst) < b.numRegs {
		return phi.Dst
	}
	return b.origOf[int(phi.Dst)-b.numRegs]
}

// defReg gives a definition of orig a fresh SSA name and makes it
// current.
func (b *builder) defReg(orig ir.RegID) ir.RegID {
	b.origOf = append(b.origOf, orig)
	name := b.f.NewReg(b.f.RegName(orig))
	b.undo = append(b.undo, undoEntry{idx: int32(orig), prev: int32(b.curReg[orig])})
	b.curReg[orig] = name
	return name
}

// defRes makes the new version ver of base current.
func (b *builder) defRes(base, ver ir.ResourceID) {
	b.undo = append(b.undo, undoEntry{res: true, idx: int32(base), prev: int32(b.curRes[base])})
	b.curRes[base] = ver
}

func (b *builder) rename(blk *ir.Block) error {
	f := b.f
	mark := len(b.undo)

	for _, in := range blk.Instrs {
		switch in.Op {
		case ir.OpPhi:
			in.Dst = b.defReg(in.Dst)
			continue
		case ir.OpMemPhi:
			base := f.BaseOf(in.MemDefs[0].Res).ID
			nv := f.NewVersion(base)
			in.MemDefs[0].Res = nv.ID
			b.defRes(base, nv.ID)
			continue
		}
		// Ordinary instruction: rewrite register uses.
		for i, a := range in.Args {
			if a.IsConst() {
				continue
			}
			cur := b.curReg[a.Reg()]
			if cur == ir.NoReg {
				return fmt.Errorf("ssa: %s: register r%d used before definition in %v",
					f.Name, a.Reg(), blk)
			}
			in.Args[i] = ir.RegVal(cur)
		}
		// Rewrite memory uses to current versions.
		for i := range in.MemUses {
			in.MemUses[i].Res = b.curRes[in.MemUses[i].Res]
		}
		// Rewrite register definition.
		if in.HasDst() {
			in.Dst = b.defReg(in.Dst)
		}
		// Rewrite memory definitions to fresh versions.
		for i := range in.MemDefs {
			nv := f.NewVersion(in.MemDefs[i].Res)
			in.MemDefs[i].Res = nv.ID
			b.defRes(f.BaseOf(nv.ID).ID, nv.ID)
		}
	}

	// Fill phi operands in successors.
	for _, s := range blk.Succs {
		pi := s.PredIndex(blk)
		for _, phi := range s.Phis() {
			switch phi.Op {
			case ir.OpPhi:
				if cur := b.curReg[b.phiOrig(phi)]; cur != ir.NoReg {
					phi.Args[pi] = ir.RegVal(cur)
				} else {
					// The merged variable is undefined along this path;
					// its value can never be observed, so any operand
					// is sound.
					phi.Args[pi] = ir.ConstVal(0)
				}
			case ir.OpMemPhi:
				phi.MemUses[pi] = ir.MemRef{Res: b.curRes[f.BaseOf(phi.MemDefs[0].Res).ID]}
			}
		}
	}

	for _, c := range b.dom.Children(blk) {
		if err := b.rename(c); err != nil {
			return err
		}
	}

	// Leave the subtree: restore every name its blocks made current.
	for len(b.undo) > mark {
		u := b.undo[len(b.undo)-1]
		b.undo = b.undo[:len(b.undo)-1]
		if u.res {
			b.curRes[u.idx] = ir.ResourceID(u.prev)
		} else {
			b.curReg[u.idx] = ir.RegID(u.prev)
		}
	}
	return nil
}
