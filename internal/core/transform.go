package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// transformer applies a web's promotion plan: Figures 4, 5, and 6 of
// the paper plus the incremental SSA update after store cloning.
type transformer struct {
	p    *promoter
	iv   *cfg.Interval
	w    *web
	plan *webPlan

	// vrMap maps a singleton resource version to the virtual register
	// that always holds its value (the paper's vrMap).
	vrMap map[ir.ResourceID]ir.RegID
	// leafLoads records the loads inserted at phi leaves, keyed by
	// (resource, block): materializeStoreValue's leaf lookup.
	leafLoads map[leafKey]ir.RegID
	// cloned collects the new store-defined versions for the SSA update.
	cloned []ir.ResourceID
}

type leafKey struct {
	res ir.ResourceID
	blk ir.BlockID
}

// initVRMap inserts a copy `t = v` after every store `st [x] = v` of the
// web and records vrMap[x] = t.
func (t *transformer) initVRMap() {
	for _, st := range t.w.stores {
		f := t.p.f
		reg := f.NewReg(f.BaseOf(st.MemDefs[0].Res).Name)
		cp := ir.NewInstr(ir.OpCopy, reg, st.Args[0])
		st.Parent.InsertAfter(cp, st)
		t.vrMap[st.MemDefs[0].Res] = reg
	}
}

// insertLoadsAtPhiLeaves adds `t = ld [x]` before each planned insertion
// point — the compensation loads on paths carrying aliased definitions
// or the live-in value.
func (t *transformer) insertLoadsAtPhiLeaves() {
	t.leafLoads = make(map[leafKey]ir.RegID)
	f := t.p.f
	for _, ref := range t.plan.loadsAdded {
		reg := f.NewReg(f.BaseOf(ref.res).Name)
		ld := ir.NewInstr(ir.OpLoad, reg)
		ld.Loc = f.Res(ref.res).Loc
		ld.MemUses = []ir.MemRef{{Res: ref.res}}
		ref.at.Parent.InsertBefore(ld, ref.at)
		// Leaf loads are looked up per (resource, block) — never through
		// vrMap: the same leaf resource can feed several phis from
		// different predecessor blocks (multi-entry intervals), and each
		// phi operand must use the load on its own edge.
		t.leafLoads[leafKey{ref.res, ref.at.Parent.ID}] = reg
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
	if reg, ok := t.vrMap[memRes]; ok {
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
	t.vrMap[memRes] = dst

	for i, u := range memPhi.MemUses {
		x := u.Res
		// A leaf operand takes the load inserted on its own incoming
		// edge; this must win over any other mapping for x.
		if reg, ok := t.leafLoads[leafKey{x, memPhi.Parent.Preds[i].ID}]; ok {
			regPhi.Args[i] = ir.RegVal(reg)
			continue
		}
		if reg, ok := t.vrMap[x]; ok {
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
		reg, ok := t.vrMap[ref.res]
		if !ok {
			continue // store-defined resources always have vrMap entries
		}
		ver := f.NewVersion(t.w.base)
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.RegVal(reg))
		st.Loc = f.Res(t.w.base).Loc
		st.MemDefs = []ir.MemRef{{Res: ver.ID}}
		ref.at.Parent.InsertBefore(st, ref.at)
		t.cloned = append(t.cloned, ver.ID)
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
		t.cloned = append(t.cloned, ver.ID)
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
	if len(t.cloned) == 0 {
		return nil
	}
	var oldSet []ir.ResourceID
	before := make(map[*ir.Instr]bool)
	for _, st := range t.w.stores {
		oldSet = append(oldSet, st.MemDefs[0].Res)
		before[st] = true
	}
	for _, phi := range t.w.memPhis {
		oldSet = append(oldSet, phi.MemDefs[0].Res)
	}
	// The dominator tree is unchanged (no CFG edits), but the frontier
	// cache may be reused as-is too.
	if _, err := t.p.updater.Update(t.p.f, t.p.dom, t.p.df, oldSet, t.cloned); err != nil {
		return err
	}
	for st := range before {
		if st.Parent == nil {
			t.p.stats.StoresDeleted++
		}
	}
	return nil
}
