package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// transformer applies a web's promotion plan: Figures 4, 5, and 6 of
// the paper plus the incremental SSA update after store cloning.
//
// Its state lives in the promoter's scratch, indexed by ResourceID:
// vrMap maps a singleton resource version to the virtual register that
// always holds its value (the paper's vrMap; ir.NoReg where unset).
// leafLoads records the loads inserted at phi leaves by (resource,
// block), materializeStoreValue's leaf lookup, and leafSeen marks the
// versions it holds a load of. cloned collects the new store-defined
// versions for the SSA update.
type transformer struct {
	p    *promoter
	iv   *cfg.Interval
	w    *web
	plan *webPlan
}

// leafLoad is a load of res inserted at the end of block blk into reg.
type leafLoad struct {
	res ir.ResourceID
	blk ir.BlockID
	reg ir.RegID
}

// begin sizes the promoter's transformer scratch over the function's
// versions. Every version the transformer looks up exists by now:
// the versions it creates are only ever cloned definitions.
func (t *transformer) begin() {
	p := t.p
	for n := len(p.f.Resources); len(p.vrMap) < n; {
		p.vrMap = append(p.vrMap, ir.NoReg)
	}
	p.leafSeen = growTo(p.leafSeen, len(p.f.Resources))
	p.cloned = p.cloned[:0]
}

// end clears the scratch entries the web set.
func (t *transformer) end() {
	p := t.p
	for _, r := range p.vrTouched {
		p.vrMap[r] = ir.NoReg
	}
	for _, ll := range p.leafLoads {
		p.leafSeen[ll.res] = false
	}
	p.vrTouched, p.leafLoads = p.vrTouched[:0], p.leafLoads[:0]
}

// vr returns vrMap's register for r.
func (t *transformer) vr(r ir.ResourceID) (ir.RegID, bool) {
	reg := t.p.vrMap[r]
	return reg, reg != ir.NoReg
}

// setVR records vrMap[r] = reg.
func (t *transformer) setVR(r ir.ResourceID, reg ir.RegID) {
	t.p.vrMap[r] = reg
	t.p.vrTouched = append(t.p.vrTouched, r)
}

// leafReg returns the register of the load of r inserted at the end
// of block blk.
func (t *transformer) leafReg(r ir.ResourceID, blk ir.BlockID) (ir.RegID, bool) {
	if t.p.leafSeen[r] {
		for _, ll := range t.p.leafLoads {
			if ll.res == r && ll.blk == blk {
				return ll.reg, true
			}
		}
	}
	return ir.NoReg, false
}

// initVRMap inserts a copy `t = v` after every store `st [x] = v` of the
// web and records vrMap[x] = t.
func (t *transformer) initVRMap() {
	for _, st := range t.w.stores {
		f := t.p.f
		reg := f.NewReg(f.BaseOf(st.MemDefs[0].Res).Name)
		cp := ir.NewInstr(ir.OpCopy, reg, st.Args[0])
		st.Parent.InsertAfter(cp, st)
		t.setVR(st.MemDefs[0].Res, reg)
	}
}

// insertLoadsAtPhiLeaves adds `t = ld [x]` before each planned insertion
// point — the compensation loads on paths carrying aliased definitions
// or the live-in value.
func (t *transformer) insertLoadsAtPhiLeaves() {
	f := t.p.f
	for _, ref := range t.plan.loadsAdded {
		reg := f.NewReg(f.BaseOf(ref.res).Name)
		ld := ir.NewInstr(ir.OpLoad, reg)
		ld.Loc = f.Res(ref.res).Loc
		ld.MemUses = []ir.MemRef{{Res: ref.res}}
		ref.at.Parent.InsertBefore(ld, ref.at)
		t.p.addRef(t.w.base, ld)
		// Leaf loads are looked up per (resource, block) — never through
		// vrMap: the same leaf resource can feed several phis from
		// different predecessor blocks (multi-entry intervals), and each
		// phi operand must use the load on its own edge. The plan holds
		// each (resource, block) pair once.
		t.p.leafSeen[ref.res] = true
		t.p.leafLoads = append(t.p.leafLoads, leafLoad{ref.res, ref.at.Parent.ID, reg})
		t.p.stats.LoadsInserted++
	}
}

// materializeStoreValue returns a register holding the value of memRes,
// which must be defined by a web store or memphi (Figure 6). For phi-
// defined resources it builds a register phi mirroring the memphi,
// recursing into operands. The register phi is inserted and registered
// in vrMap before the recursion so that phi cycles (loop-carried
// values) terminate.
func (t *transformer) materializeStoreValue(memRes ir.ResourceID) (ir.RegID, error) {
	if reg, ok := t.vr(memRes); ok {
		return reg, nil
	}
	f := t.p.f
	memPhi := t.p.definedByPhi(memRes)
	if memPhi == nil {
		return ir.NoReg, fmt.Errorf("core: materialize %s: not in vrMap and not phi-defined", f.Res(memRes))
	}

	dst := f.NewReg(f.BaseOf(memRes).Name)
	regPhi := ir.NewInstr(ir.OpPhi, dst, make([]ir.Value, len(memPhi.MemUses))...)
	memPhi.Parent.InsertPhi(regPhi)
	t.setVR(memRes, dst)

	for i, u := range memPhi.MemUses {
		x := u.Res
		// A leaf operand takes the load inserted on its own incoming
		// edge; this must win over any other mapping for x.
		if reg, ok := t.leafReg(x, memPhi.Parent.Preds[i].ID); ok {
			regPhi.Args[i] = ir.RegVal(reg)
			continue
		}
		if reg, ok := t.vr(x); ok {
			regPhi.Args[i] = ir.RegVal(reg)
			continue
		}
		reg, err := t.materializeStoreValue(x)
		if err != nil {
			return ir.NoReg, err
		}
		regPhi.Args[i] = ir.RegVal(reg)
	}
	return dst, nil
}

// replaceLoadsByCopies is Figure 5: every load of a store- or phi-
// defined resource becomes a copy from the materialized register.
func (t *transformer) replaceLoadsByCopies() {
	for _, ld := range t.w.loads {
		x := ld.MemUses[0].Res
		if !t.p.definedByStore(x) && t.p.definedByPhi(x) == nil {
			continue // live-in or aliased-def value: must stay a load
		}
		reg, err := t.materializeStoreValue(x)
		if err != nil {
			// Defensive: leave the load in place rather than
			// miscompiling; cannot happen for well-formed webs.
			continue
		}
		replaceWithCopy(ld, ir.RegVal(reg))
		t.p.stats.LoadsReplaced++
	}
}

// insertStoresForAliasedLoads places the planned compensation stores:
// `st [x] = vrMap[x]` immediately before each planned point, cloning a
// fresh version of the base for the later SSA update.
func (t *transformer) insertStoresForAliasedLoads() {
	f := t.p.f
	for _, ref := range t.plan.storesAdded {
		reg, ok := t.vr(ref.res)
		if !ok {
			continue // store-defined resources always have vrMap entries
		}
		ver := f.NewVersion(t.w.base)
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.RegVal(reg))
		st.Loc = f.Res(t.w.base).Loc
		st.MemDefs = []ir.MemRef{{Res: ver.ID}}
		ref.at.Parent.InsertBefore(st, ref.at)
		t.p.addRef(t.w.base, st)
		t.p.cloned = append(t.p.cloned, ver.ID)
		t.p.stats.StoresInserted++
	}
}

// insertStoresAtIntervalTails stores each exit edge's live-out value in
// its dedicated tail block, materializing the value first.
func (t *transformer) insertStoresAtIntervalTails() {
	f := t.p.f
	for _, ts := range t.plan.tailStores {
		reg, err := t.materializeStoreValue(ts.res)
		if err != nil {
			continue
		}
		ver := f.NewVersion(t.w.base)
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.RegVal(reg))
		st.Loc = f.Res(t.w.base).Loc
		st.MemDefs = []ir.MemRef{{Res: ver.ID}}
		if first := firstNonPhi(ts.tail); first != nil {
			ts.tail.InsertBefore(st, first)
		} else {
			ts.tail.Append(st)
		}
		t.p.addRef(t.w.base, st)
		t.p.cloned = append(t.p.cloned, ver.ID)
		t.p.stats.StoresInserted++
	}
}

func firstNonPhi(b *ir.Block) *ir.Instr {
	for _, in := range b.Instrs {
		if !in.Op.IsPhi() {
			return in
		}
	}
	return nil
}

// updateSSAAndDeleteStores runs the incremental SSA update for the
// cloned store definitions. The old resource set is every web version
// defined inside the interval by a store or memphi; renaming moves all
// their uses onto the clones (or onto fresh phis), after which the
// update's dead-definition sweep deletes the original stores — the
// paper's deleteStores() realized through the Figure 11 algorithm.
func (t *transformer) updateSSAAndDeleteStores() error {
	p := t.p
	if len(p.cloned) == 0 {
		return nil
	}
	oldSet := p.oldSet[:0]
	for _, st := range t.w.stores {
		oldSet = append(oldSet, st.MemDefs[0].Res)
	}
	for _, phi := range t.w.memPhis {
		oldSet = append(oldSet, phi.MemDefs[0].Res)
	}
	p.oldSet = oldSet
	// The dominator tree is unchanged (no CFG edits), but the frontier
	// cache may be reused as-is too. The update visits only the base's
	// references, which the index lists.
	phis, err := p.updater.UpdateRefs(p.f, p.dom, p.df, oldSet, p.cloned, p.baseRefs(t.w.base))
	if err != nil {
		return err
	}
	for _, phi := range phis {
		p.addRef(t.w.base, phi)
	}
	for _, st := range t.w.stores {
		if st.Parent == nil {
			p.stats.StoresDeleted++
		}
	}
	return nil
}
