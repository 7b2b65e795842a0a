package ssa

import (
	"cmp"
	"fmt"
	"slices"

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
// the order phi placement visited their blocks. A caller that updates
// one function many times should keep an Updater instead, and one that
// keeps an index of the base's references should call its UpdateRefs.
func UpdateForClonedResources(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers, oldRes, cloned []ir.ResourceID) ([]*ir.Instr, error) {
	return new(Updater).Update(f, dom, df, oldRes, cloned)
}

// Updater runs UpdateForClonedResources and keeps the update's dense
// per-version state, indexed by ResourceID, between calls on the same
// function, so a caller that updates many bases of one function
// allocates it once. Each call clears only the entries it set; handing
// the Updater a different function drops the state. The zero Updater
// is ready to use. An Updater is not safe for concurrent use.
type Updater struct {
	f    *ir.Function
	dom  *cfg.DomTree
	base ir.ResourceID

	old      []bool      // versions whose uses are renamed
	all      []bool      // old, cloned and live inserted versions
	newPhi   []bool      // targets of the phis step 1 inserted
	livePhi  []bool      // inserted phis a renamed use or a live phi reaches
	defInstr []*ir.Instr // defining instruction of each tracked version
	basePhi  []*ir.Instr // memphi defining each version of the base
	liveRes  []bool      // versions of the base step 4 marks live

	// touched lists every version whose entry a slice above was set
	// for; the end of a call clears those entries.
	touched []ir.ResourceID

	idf       cfg.IDF
	refs      []*ir.Instr // Update's scan of the base's references
	defBlocks []*ir.Block
	placed    []*ir.Instr // inserted phis in IDF order
	work      []*ir.Instr
	resWork   []ir.ResourceID
}

// Update is UpdateForClonedResources on u's reusable state. One scan of
// f lists the base's references; the update itself visits only those.
func (u *Updater) Update(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers, oldRes, cloned []ir.ResourceID) ([]*ir.Instr, error) {
	if len(oldRes) == 0 {
		return nil, fmt.Errorf("ssa: update with empty oldRes set")
	}
	u.refs = appendBaseRefs(u.refs[:0], f, f.BaseOf(oldRes[0]).ID)
	return u.UpdateRefs(f, dom, df, oldRes, cloned, u.refs)
}

// appendBaseRefs appends to refs, in layout order, every instruction
// of f that defines or uses a version of base.
func appendBaseRefs(refs []*ir.Instr, f *ir.Function, base ir.ResourceID) []*ir.Instr {
	res := f.Resources
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if refsBase(res, in, base) {
				refs = append(refs, in)
			}
		}
	}
	return refs
}

// refsBase reports whether in defines or uses a version of base.
func refsBase(res []*ir.Resource, in *ir.Instr, base ir.ResourceID) bool {
	for _, d := range in.MemDefs {
		if res[d.Res].Orig == base {
			return true
		}
	}
	for _, u := range in.MemUses {
		if res[u.Res].Orig == base {
			return true
		}
	}
	return false
}

// UpdateRefs is Update for a caller that keeps an index of the base's
// references. refs must hold every instruction of f that defines or
// uses a version of the base, once each and in any order; an entry no
// longer in a block (Parent == nil) or no longer referencing the base
// is skipped. Steps 1 and 2 visit only refs, never f.Blocks, so the
// cost follows the base's references. The caller adds the returned
// phis to its index.
func (u *Updater) UpdateRefs(f *ir.Function, dom *cfg.DomTree, df cfg.DomFrontiers, oldRes, cloned []ir.ResourceID, refs []*ir.Instr) ([]*ir.Instr, error) {
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
	if u.f != f {
		*u = Updater{f: f}
	}
	u.dom, u.base = dom, base
	defer u.reset()

	u.grow()
	for _, r := range oldRes {
		u.track(r)
		u.old[r] = true
	}
	for _, r := range cloned {
		u.track(r)
	}

	// Step 1: batch phi placement at the IDF of every definition block.
	// The same pass indexes each tracked version's defining instruction.
	// The definition blocks are sorted into layout order (block IDs
	// increase along f.Blocks: NewBlock appends the next ID, and block
	// removal and Renumber keep the order), so the IDF worklist, the
	// order phis are placed in, and the version numbers they take do
	// not depend on the order of refs.
	for _, in := range refs {
		if in.Parent == nil {
			continue
		}
		for _, d := range in.MemDefs {
			if u.all[d.Res] {
				u.defInstr[d.Res] = in
				u.defBlocks = append(u.defBlocks, in.Parent)
			}
		}
	}
	slices.SortFunc(u.defBlocks, func(a, b *ir.Block) int { return cmp.Compare(a.ID, b.ID) })
	u.defBlocks = slices.Compact(u.defBlocks)
	for _, jb := range u.idf.Of(df, u.defBlocks) {
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
		u.placed = append(u.placed, phi)
		u.grow()
		u.track(target.ID)
		u.newPhi[target.ID] = true
		u.defInstr[target.ID] = phi
		u.basePhi[target.ID] = phi
	}

	// Step 2, in one pass over refs with step 4's roots: rename uses of
	// old resources to their reaching defs, and note every memphi of
	// the base and every base version a non-phi instruction uses (step
	// 1 noted the new phis). A new phi becomes live when a renamed use
	// or a live phi's operand reaches it. Step 3 changes only new phis'
	// operands and the phi removal below only new phis, so the roots
	// noted here are the ones a pass after them would find. Renaming
	// and marking are order-free, so the order of refs does not matter.
	res := f.Resources
	for _, in := range refs {
		b := in.Parent
		if b == nil {
			continue
		}
		reachable := dom.RPOIndex(b) >= 0
		if in.Op == ir.OpMemPhi {
			r := in.MemDefs[0].Res
			if res[r].Orig != base || u.newPhi[r] {
				continue // new phis' operands are filled in step 3
			}
			u.basePhi[r] = in
			u.touched = append(u.touched, r)
			if !reachable {
				continue
			}
			for i := range in.MemUses {
				if u.old[in.MemUses[i].Res] {
					pred := b.Preds[i]
					u.rename(&in.MemUses[i], u.reachingDef(pred, len(pred.Instrs)))
				}
			}
			continue
		}
		rdef := ir.NoResource // every use of in has the same reaching def
		for i := range in.MemUses {
			use := &in.MemUses[i]
			if reachable && u.old[use.Res] {
				if rdef == ir.NoResource {
					rdef = u.reachingDefBefore(in)
				}
				u.rename(use, rdef)
			}
			if res[use.Res].Orig == base {
				u.markRes(use.Res)
			}
		}
	}

	// Step 3: fill the operands of live new phis, propagating liveness.
	for len(u.work) > 0 {
		phi := u.work[len(u.work)-1]
		u.work = u.work[:len(u.work)-1]
		b := phi.Parent
		for pi, pred := range b.Preds {
			rdef := u.reachingDefExcluding(pred, len(pred.Instrs), phi)
			phi.MemUses[pi].Res = rdef
			u.enqueue(rdef)
		}
	}

	// Unreached new phis are dead; remove them before the mark so their
	// placeholder operands do not hold other defs alive.
	for _, phi := range u.placed {
		if r := phi.MemDefs[0].Res; !u.livePhi[r] {
			u.all[r] = false
			u.basePhi[r] = nil
			phi.Parent.Remove(phi)
		}
	}

	// Step 4: delete definitions without uses. A plain use count cannot
	// retire cycles of mutually-referencing dead phis (a loop header phi
	// and a join phi feeding each other), so liveness is computed by
	// mark and sweep: a version is live when a non-phi instruction uses
	// it, or when a memphi whose own target is live uses it. The mark
	// must see every memphi of the base — phis outside the updated
	// family (for example an enclosing loop's header phi) legitimately
	// keep cloned definitions alive — but only versions of the base:
	// memphis never mix bases, so another base's versions can neither
	// keep this base's definitions alive nor be swept here.
	for len(u.resWork) > 0 {
		r := u.resWork[len(u.resWork)-1]
		u.resWork = u.resWork[:len(u.resWork)-1]
		if phi := u.basePhi[r]; phi != nil {
			for _, use := range phi.MemUses {
				u.markRes(use.Res)
			}
		}
	}
	for _, r := range u.touched {
		if !u.all[r] || u.liveRes[r] {
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
	for _, phi := range u.placed {
		if phi.Parent != nil {
			alive = append(alive, phi)
		}
	}
	return alive, nil
}

// grow extends the per-version slices to cover every resource of the
// function; phi placement appends a version per inserted phi.
func (u *Updater) grow() {
	n := len(u.f.Resources)
	u.old = growTo(u.old, n)
	u.all = growTo(u.all, n)
	u.newPhi = growTo(u.newPhi, n)
	u.livePhi = growTo(u.livePhi, n)
	u.defInstr = growTo(u.defInstr, n)
	u.basePhi = growTo(u.basePhi, n)
	u.liveRes = growTo(u.liveRes, n)
}

// growTo returns s extended with zero values to length n. Entries past
// len(s) are zero: an Updater only grows its slices within a function
// and clears every entry it sets.
func growTo[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	return append(s[:cap(s)], make([]T, n-cap(s))...)
}

// track adds r to the versions the update follows.
func (u *Updater) track(r ir.ResourceID) {
	if !u.all[r] {
		u.all[r] = true
		u.touched = append(u.touched, r)
	}
}

// rename points use at rdef and makes rdef's phi live if it is new.
func (u *Updater) rename(use *ir.MemRef, rdef ir.ResourceID) {
	use.Res = rdef
	u.enqueue(rdef)
}

// enqueue makes the new phi defining def live, queueing it for step 3.
func (u *Updater) enqueue(def ir.ResourceID) {
	if u.newPhi[def] && !u.livePhi[def] {
		u.livePhi[def] = true
		u.work = append(u.work, u.defInstr[def])
	}
}

// markRes marks the base version r live, queueing it for step 4.
func (u *Updater) markRes(r ir.ResourceID) {
	if !u.liveRes[r] {
		u.liveRes[r] = true
		u.touched = append(u.touched, r)
		u.resWork = append(u.resWork, r)
	}
}

// reset clears the entries the call set, leaving every slice all zero
// for the next call; steps 3 and 4 leave the work lists empty.
func (u *Updater) reset() {
	for _, r := range u.touched {
		u.old[r], u.all[r], u.newPhi[r], u.livePhi[r], u.liveRes[r] = false, false, false, false, false
		u.defInstr[r], u.basePhi[r] = nil, nil
	}
	u.touched, u.defBlocks, u.placed = u.touched[:0], u.defBlocks[:0], u.placed[:0]
}

// reachingDef is the paper's computeReachingDef: the nearest definition
// of any resource in the tracked set that precedes position (blk, idx),
// found by scanning backward in the block and then walking the dominator
// tree toward the root. If no definition reaches, the base's live-in
// version 0 is returned.
func (u *Updater) reachingDef(blk *ir.Block, idx int) ir.ResourceID {
	return u.reachingDefExcluding(blk, idx, nil)
}

// reachingDefBefore is reachingDef at in's position in its block: the
// last tracked definition before in, found by scanning the block
// forward up to in, else the definition reaching the block's entry.
func (u *Updater) reachingDefBefore(in *ir.Instr) ir.ResourceID {
	last := ir.NoResource
	for _, x := range in.Parent.Instrs {
		if x == in {
			break
		}
		for _, d := range x.MemDefs {
			if u.all[d.Res] {
				last = d.Res
				break
			}
		}
	}
	if last != ir.NoResource {
		return last
	}
	return u.reachingDef(in.Parent, 0)
}

// reachingDefExcluding is reachingDef but skips the definition made by
// skip. Filling a phi's operand from a predecessor must not see the
// phi itself (possible when the predecessor is the phi's own block in a
// self-loop).
func (u *Updater) reachingDefExcluding(blk *ir.Block, idx int, skip *ir.Instr) ir.ResourceID {
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
