package ssa

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// UpdateForClonedResources is the paper's incremental SSA update for
// cloned definitions (its updateSSAForClonedResources, Figure 11).
//
// oldRes is a set of resource versions already under SSA form, all
// renamed from the same base name; cloned is a set of new versions of
// the same base whose defining instructions have already been inserted
// into the code stream (for register promotion these are the
// compensation stores; loop unrolling would pass the duplicated
// definitions). The update:
//
//  1. collects the definition blocks of old and cloned resources,
//     computes their iterated dominance frontier in one batch, and
//     places a fresh memphi at each frontier block;
//  2. renames every use of an old resource to its reaching definition,
//     found by walking backward in the block and then up the dominator
//     tree;
//  3. fills the operands of phis that uses made live, propagating
//     liveness through newly reached phis (a phi operand counts as a
//     use at the end of its predecessor);
//  4. deletes every definition left without uses — dead old stores,
//     dead cloned stores, and redundant inserted phis — iterating so
//     cascading deadness is also removed. Only direct stores and
//     memphis are deleted; aliased definitions (calls, pointer stores)
//     merely keep their dead version.
//
// The batch IDF over all definition sites is what makes this cheaper
// than updating one definition at a time as in Choi–Sarkar–Schonberg;
// step 4 is why the paper can promise that cloning introduces no dead
// code.
//
// Step 4's sweep is scoped to the base: it marks and deletes only
// versions of the updated base.
//
// It returns the memphi instructions it inserted and left alive, in
// the order phi placement visited their blocks.
func UpdateForClonedResources(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers, oldRes, cloned []ir.ResourceID) ([]*ir.Instr, error) {
	if len(oldRes) == 0 {
		return nil, fmt.Errorf("ssa: update with empty oldRes set")
	}
	base := f.BaseOf(oldRes[0]).ID
	for _, set := range [][]ir.ResourceID{oldRes, cloned} {
		for _, r := range set {
			if f.BaseOf(r).ID != base {
				return nil, fmt.Errorf("ssa: update resources span different bases (%s vs %s)",
					f.Res(base), f.BaseOf(r))
			}
		}
	}

	u := &updater{f: f, dom: dom, base: base}
	u.grow()
	for _, r := range oldRes {
		u.old[r] = true
		u.all[r] = true
	}
	for _, r := range cloned {
		u.all[r] = true
	}

	// Step 1: batch phi placement at the IDF of every definition block.
	// The same scan indexes each tracked version's defining instruction.
	var defBlocks []*ir.Block
	for _, b := range f.Blocks {
		seen := false
		for _, in := range b.Instrs {
			for _, d := range in.MemDefs {
				if u.all[d.Res] {
					u.defInstr[d.Res] = in
					if !seen {
						seen = true
						defBlocks = append(defBlocks, b)
					}
				}
			}
		}
	}
	// placed lists the inserted phis in IDF order, which fixes the
	// order of the returned slice.
	var placed []*ir.Instr
	for _, jb := range cfg.IteratedDF(df, defBlocks) {
		if dom.RPOIndex(jb) < 0 {
			continue
		}
		target := f.NewVersion(base)
		phi := ir.NewInstr(ir.OpMemPhi, ir.NoReg)
		phi.MemDefs = []ir.MemRef{{Res: target.ID}}
		phi.MemUses = make([]ir.MemRef, len(jb.Preds))
		for i := range phi.MemUses {
			phi.MemUses[i] = ir.MemRef{Res: base} // placeholder until filled
		}
		jb.InsertPhi(phi)
		placed = append(placed, phi)
		u.grow()
		u.all[target.ID] = true
		u.newPhi[target.ID] = true
		u.defInstr[target.ID] = phi
	}

	// Step 2: rename uses of old resources to their reaching defs. A new
	// phi becomes live (livePhi, indexed by its target) when a renamed
	// use or a live phi's operand reaches it.
	livePhi := make([]bool, len(u.all))
	var work []*ir.Instr
	enqueue := func(def ir.ResourceID) {
		if u.newPhi[def] && !livePhi[def] {
			livePhi[def] = true
			work = append(work, u.defInstr[def])
		}
	}
	for _, b := range f.Blocks {
		if dom.RPOIndex(b) < 0 {
			continue
		}
		for idx, in := range b.Instrs {
			if in.Op == ir.OpMemPhi && u.newPhi[in.MemDefs[0].Res] {
				continue // operands are filled in step 3
			}
			for i := range in.MemUses {
				if !u.old[in.MemUses[i].Res] {
					continue
				}
				var rdef ir.ResourceID
				if in.Op == ir.OpMemPhi {
					pred := b.Preds[i]
					rdef = u.reachingDef(pred, len(pred.Instrs))
				} else {
					rdef = u.reachingDef(b, idx)
				}
				if rdef != in.MemUses[i].Res {
					in.MemUses[i].Res = rdef
				}
				enqueue(rdef)
			}
		}
	}

	// Step 3: fill the operands of live new phis, propagating liveness.
	for len(work) > 0 {
		phi := work[len(work)-1]
		work = work[:len(work)-1]
		b := phi.Parent
		for pi, pred := range b.Preds {
			rdef := u.reachingDefExcluding(pred, len(pred.Instrs), phi)
			phi.MemUses[pi].Res = rdef
			enqueue(rdef)
		}
	}

	// Unreached new phis are dead; remove them before counting uses so
	// their placeholder operands do not hold other defs alive.
	for _, phi := range placed {
		if r := phi.MemDefs[0].Res; !livePhi[r] {
			u.all[r] = false
			phi.Parent.Remove(phi)
		}
	}

	// Step 4: delete definitions without uses. A plain use count cannot
	// retire cycles of mutually-referencing dead phis (a loop header phi
	// and a join phi feeding each other), so liveness is computed by
	// mark and sweep: a version is live when a non-phi instruction uses
	// it, or when a memphi whose own target is live uses it. The sweep
	// must see every memphi of the base — phis outside the updated
	// family (for example an enclosing loop's header phi) legitimately
	// keep cloned definitions alive — but only versions of the base:
	// memphis never mix bases, so another base's versions can neither
	// keep this base's definitions alive nor be swept here.
	res := f.Resources
	basePhi := make([]*ir.Instr, len(res))
	liveRes := make([]bool, len(res))
	var resWork []ir.ResourceID
	markRes := func(r ir.ResourceID) {
		if !liveRes[r] {
			liveRes[r] = true
			resWork = append(resWork, r)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMemPhi {
				if r := in.MemDefs[0].Res; res[r].Orig == base {
					basePhi[r] = in
				}
				continue
			}
			for _, use := range in.MemUses {
				if res[use.Res].Orig == base {
					markRes(use.Res)
				}
			}
		}
	}
	for len(resWork) > 0 {
		r := resWork[len(resWork)-1]
		resWork = resWork[:len(resWork)-1]
		if phi := basePhi[r]; phi != nil {
			for _, use := range phi.MemUses {
				markRes(use.Res)
			}
		}
	}
	for r, tracked := range u.all {
		if !tracked || liveRes[r] {
			continue
		}
		in := u.defInstr[r]
		if in == nil || in.Parent == nil {
			continue
		}
		switch in.Op {
		case ir.OpMemPhi, ir.OpStore:
			in.Parent.Remove(in)
		}
	}
	var alive []*ir.Instr
	for _, phi := range placed {
		if phi.Parent != nil {
			alive = append(alive, phi)
		}
	}
	return alive, nil
}

// updater holds the update's dense per-version state, indexed by
// ResourceID.
type updater struct {
	f    *ir.Function
	dom  *cfg.DomTree
	base ir.ResourceID

	old      []bool // versions whose uses are renamed
	all      []bool // old, cloned and live inserted versions
	newPhi   []bool // targets of the phis step 1 inserted
	defInstr []*ir.Instr
}

// grow extends the per-version slices to cover every resource of the
// function; phi placement appends a version per inserted phi.
func (u *updater) grow() {
	n := len(u.f.Resources) - len(u.all)
	if n <= 0 {
		return
	}
	u.old = append(u.old, make([]bool, n)...)
	u.all = append(u.all, make([]bool, n)...)
	u.newPhi = append(u.newPhi, make([]bool, n)...)
	u.defInstr = append(u.defInstr, make([]*ir.Instr, n)...)
}

// reachingDef is the paper's computeReachingDef: the nearest definition
// of any resource in the tracked set that precedes position (blk, idx),
// found by scanning backward in the block and then walking the dominator
// tree toward the root. If no definition reaches, the base's live-in
// version 0 is returned.
func (u *updater) reachingDef(blk *ir.Block, idx int) ir.ResourceID {
	return u.reachingDefExcluding(blk, idx, nil)
}

// reachingDefExcluding is reachingDef but skips the definition made by
// skip. Filling a phi's operand from a predecessor must not see the
// phi itself (possible when the predecessor is the phi's own block in a
// self-loop).
func (u *updater) reachingDefExcluding(blk *ir.Block, idx int, skip *ir.Instr) ir.ResourceID {
	for b := blk; ; {
		instrs := b.Instrs
		limit := len(instrs)
		if b == blk {
			limit = idx
		}
		for i := limit - 1; i >= 0; i-- {
			in := instrs[i]
			if in == skip {
				continue
			}
			for _, d := range in.MemDefs {
				if u.all[d.Res] {
					return d.Res
				}
			}
		}
		next := u.dom.Idom(b)
		if next == nil || next == b {
			return u.base // live-in version 0
		}
		b = next
	}
}
