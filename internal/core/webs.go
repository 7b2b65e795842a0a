package core

import (
	"slices"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// memRefSite is one memory reference: an operand slot on an instruction
// (the paper's "reference").
type memRefSite struct {
	in    *ir.Instr
	isDef bool
	idx   int // index into MemDefs or MemUses
}

func (r memRefSite) res() ir.ResourceID {
	if r.isDef {
		return r.in.MemDefs[r.idx].Res
	}
	return r.in.MemUses[r.idx].Res
}

// web is one memory SSA web inside an interval, with the reference sets
// of section 4.2 of the paper.
type web struct {
	base      ir.ResourceID   // base resource all versions rename
	resources []ir.ResourceID // member versions, ascending

	// Reference sets, all restricted to the interval.
	loads        []*ir.Instr  // singleton loads (OpLoad)
	stores       []*ir.Instr  // singleton stores (OpStore)
	aliasedLoads []memRefSite // aliased uses: calls, pointer ops, dummies
	aliasedDefs  []memRefSite // aliased defs: calls, pointer stores
	memPhis      []*ir.Instr  // memphi instructions of the web

	// defsInInterval lists web resources defined inside the interval
	// (by any kind of definition).
	defsInInterval map[ir.ResourceID]*ir.Instr

	// usedOutside, indexed by ResourceID and shared by every web of the
	// interval, marks the versions with a use outside the interval. One
	// scan per interval fills it, and promoting the interval's webs
	// keeps it exact: promoting a web renames only uses of its own
	// versions and inserts only its own or fresh versions, so no other
	// web of the interval gains or loses an outside use.
	usedOutside []bool
}

// constructSSAWebs partitions the promotable resource versions
// referenced in the interval into webs: the union-find pass of the
// paper's Figure 3, seeded with every referenced resource and unioned
// across each memphi's target and operands. The union-find and the
// web lookup are dense slices indexed by ResourceID that the promoter
// keeps for the whole function: each call first clears the entries the
// previous call seeded, then grows them over the versions promotion
// appended since.
func (p *promoter) constructSSAWebs(iv *cfg.Interval) []*web {
	for _, r := range p.seeded {
		p.parent[r] = ir.NoResource
		p.webOf[r] = nil
		p.usedOutside[r] = false
	}
	p.seeded = p.seeded[:0]
	n := len(p.f.Resources)
	for len(p.parent) < n {
		p.parent = append(p.parent, ir.NoResource)
	}
	if k := n - len(p.webOf); k > 0 {
		p.webOf = append(p.webOf, make([]*web, k)...)
		p.usedOutside = append(p.usedOutside, make([]bool, k)...)
	}
	parent, webOf, usedOutside := p.parent, p.webOf, p.usedOutside

	find := func(r ir.ResourceID) ir.ResourceID {
		root := r
		for parent[root] != root {
			root = parent[root]
		}
		for parent[r] != root {
			parent[r], r = root, parent[r]
		}
		return root
	}
	// The smaller resource becomes the root, so a class's root is its
	// smallest member.
	union := func(a, b ir.ResourceID) {
		ra, rb := find(a), find(b)
		if ra != rb {
			if rb < ra {
				ra, rb = rb, ra
			}
			parent[rb] = ra
		}
	}

	promotable := func(r ir.ResourceID) bool { return p.f.BaseOf(r).Promotable() }
	seed := func(r ir.ResourceID) {
		if parent[r] == ir.NoResource && promotable(r) {
			parent[r] = r
			p.seeded = append(p.seeded, r)
		}
	}

	// Seed with every promotable resource referenced in the interval,
	// then union across phi connections.
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.MemDefs {
				seed(d.Res)
			}
			for _, u := range in.MemUses {
				seed(u.Res)
			}
		}
	}
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			if in.Op != ir.OpMemPhi || !promotable(in.MemDefs[0].Res) {
				continue
			}
			target := in.MemDefs[0].Res
			for _, u := range in.MemUses {
				union(target, u.Res)
			}
		}
	}

	// Mark the web versions used outside the interval, in one scan of
	// the blocks outside it.
	for _, b := range p.f.Blocks {
		if iv.Contains(b) {
			continue
		}
		for _, in := range b.Instrs {
			for _, u := range in.MemUses {
				if parent[u.Res] != ir.NoResource {
					usedOutside[u.Res] = true
				}
			}
		}
	}

	// Group into webs by representative. Visiting the seeded resources
	// in ascending order meets each class's root first, so the webs come
	// out ordered by smallest member and each member list is sorted.
	slices.Sort(p.seeded)
	var webs []*web
	for _, r := range p.seeded {
		root := find(r)
		w := webOf[root]
		if w == nil {
			w = &web{
				base:           p.f.BaseOf(r).ID,
				defsInInterval: make(map[ir.ResourceID]*ir.Instr),
				usedOutside:    usedOutside,
			}
			webOf[root] = w
			webs = append(webs, w)
		}
		webOf[r] = w
		w.resources = append(w.resources, r)
	}

	// Collect reference sets in one scan (the paper's single pass over
	// the interval's instructions).
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			for i := range in.MemDefs {
				r := in.MemDefs[i].Res
				if !promotable(r) {
					continue
				}
				w := webOf[r]
				w.defsInInterval[r] = in
				switch {
				case in.Op == ir.OpMemPhi:
					w.memPhis = append(w.memPhis, in)
				case in.Op == ir.OpStore:
					w.stores = append(w.stores, in)
				default:
					w.aliasedDefs = append(w.aliasedDefs, memRefSite{in, true, i})
				}
			}
			for i := range in.MemUses {
				r := in.MemUses[i].Res
				if !promotable(r) {
					continue
				}
				w := webOf[r]
				switch in.Op {
				case ir.OpMemPhi:
					// phi operands are web structure, not references
				case ir.OpLoad:
					w.loads = append(w.loads, in)
				default:
					w.aliasedLoads = append(w.aliasedLoads, memRefSite{in, false, i})
				}
			}
		}
	}
	return webs
}

// webPlan holds the placement and profitability analysis of section 4.3:
// the loads-added and stores-added sets, the live-in and live-out
// resources, and the profit components.
type webPlan struct {
	liveIn ir.ResourceID // version valid on interval entry (NoResource if none)

	// definedByStore and definedByPhi index the web's versions defined
	// by its stores and by its memphis; the transformer reuses them.
	definedByStore map[ir.ResourceID]bool
	definedByPhi   map[ir.ResourceID]*ir.Instr

	// loadsAdded maps each insertion point to the resource to load
	// before it (the paper's loads-added pairs (x, i)).
	loadsAdded []plannedRef
	// storesAdded lists the (x, i) pairs for compensation stores before
	// aliased loads and at phi-leaf edges.
	storesAdded []plannedRef
	// tailStores lists the interval tail insertions: the live-out
	// resource per exit edge.
	tailStores []tailStore

	loadProfit   float64
	storeProfit  float64
	removeStores bool
}

type plannedRef struct {
	res ir.ResourceID
	at  *ir.Instr // insert immediately before this instruction
}

type tailStore struct {
	res  ir.ResourceID
	tail *ir.Block
}

func (pl *webPlan) profit() float64 {
	if pl.removeStores {
		return pl.loadProfit + pl.storeProfit
	}
	return pl.loadProfit
}

// planWeb computes the analysis of section 4.3 for one web.
func (p *promoter) planWeb(iv *cfg.Interval, w *web) *webPlan {
	definedByStore := make(map[ir.ResourceID]bool, len(w.stores))
	for _, st := range w.stores {
		definedByStore[st.MemDefs[0].Res] = true
	}
	definedByPhi := make(map[ir.ResourceID]*ir.Instr, len(w.memPhis))
	for _, phi := range w.memPhis {
		definedByPhi[phi.MemDefs[0].Res] = phi
	}
	pl := &webPlan{
		liveIn:         findLiveIn(w),
		definedByStore: definedByStore,
		definedByPhi:   definedByPhi,
	}

	// loads-added: for each phi operand x:L that is a leaf (not defined
	// by a web phi) and not defined by a web store, a load of x at the
	// end of block L.
	seenLoad := make(map[plannedRef]bool)
	for _, phi := range w.memPhis {
		blk := phi.Parent
		for i, u := range phi.MemUses {
			x := u.Res
			if definedByPhi[x] != nil || definedByStore[x] {
				continue
			}
			at := blk.Preds[i].Term()
			ref := plannedRef{res: x, at: at}
			if !seenLoad[ref] {
				seenLoad[ref] = true
				pl.loadsAdded = append(pl.loadsAdded, ref)
			}
		}
	}

	// stores-added. First find every web resource an aliased load
	// depends on, transitively through phis.
	depends := make(map[ir.ResourceID]bool)
	var mark func(r ir.ResourceID)
	mark = func(r ir.ResourceID) {
		if depends[r] {
			return
		}
		depends[r] = true
		if phi := definedByPhi[r]; phi != nil {
			for _, u := range phi.MemUses {
				mark(u.Res)
			}
		}
	}
	for _, al := range w.aliasedLoads {
		mark(al.res())
	}
	seenStore := make(map[plannedRef]bool)
	addStore := func(ref plannedRef) {
		if !seenStore[ref] {
			seenStore[ref] = true
			pl.storesAdded = append(pl.storesAdded, ref)
		}
	}
	// Case 1: store-defined phi operands x:L on paths feeding an
	// aliased load get a store at the end of L.
	for _, phi := range w.memPhis {
		if !depends[phi.MemDefs[0].Res] {
			continue
		}
		blk := phi.Parent
		for i, u := range phi.MemUses {
			if definedByStore[u.Res] {
				addStore(plannedRef{res: u.Res, at: blk.Preds[i].Term()})
			}
		}
	}
	// Case 2: an aliased load directly using a store-defined resource
	// gets a store immediately before it.
	for _, al := range w.aliasedLoads {
		if definedByStore[al.res()] {
			addStore(plannedRef{res: al.res(), at: al.in})
		}
	}
	pl.storesAdded = p.pruneDominatedStores(pl.storesAdded)

	// Interval tail stores: per exit edge, the reaching web definition;
	// a store is needed when it is a store- or phi-defined version with
	// uses outside the interval.
	for _, e := range iv.ExitEdges {
		r := p.reachingWebDefAt(w, e.From)
		if r == ir.NoResource || !pl.liveOut(w, r) {
			continue
		}
		pl.tailStores = append(pl.tailStores, tailStore{res: r, tail: e.Tail})
	}

	// Profit (section 4.3). Replaceable loads are those whose resource
	// is defined by a web phi or store.
	for _, ld := range w.loads {
		x := ld.MemUses[0].Res
		if definedByPhi[x] != nil || definedByStore[x] {
			pl.loadProfit += p.freq(ld.Parent)
		}
	}
	if len(w.defsInInterval) == 0 {
		// Whole-web load promotion: all loads become copies at the cost
		// of one preheader load.
		pl.loadProfit = 0
		for _, ld := range w.loads {
			pl.loadProfit += p.freq(ld.Parent)
		}
		pl.loadProfit -= p.freq(iv.Preheader)
		pl.removeStores = false
		return pl
	}
	for _, ref := range pl.loadsAdded {
		pl.loadProfit -= p.freq(ref.at.Parent)
	}
	for _, st := range w.stores {
		pl.storeProfit += p.freq(st.Parent)
	}
	for _, ref := range pl.storesAdded {
		pl.storeProfit -= p.freq(ref.at.Parent)
	}
	if p.config.CountTailStores {
		for _, ts := range pl.tailStores {
			pl.storeProfit -= p.freq(ts.tail)
		}
	}
	pl.removeStores = len(w.stores) > 0 && pl.storeProfit >= 0
	return pl
}

// pruneDominatedStores drops (x, j) when (x, i) exists and i dominates
// j, the paper's redundancy rule.
func (p *promoter) pruneDominatedStores(refs []plannedRef) []plannedRef {
	pos := func(in *ir.Instr) (blk *ir.Block, idx int) {
		blk = in.Parent
		for i, x := range blk.Instrs {
			if x == in {
				return blk, i
			}
		}
		return blk, -1
	}
	dominates := func(a, b *ir.Instr) bool {
		ba, ia := pos(a)
		bb, ib := pos(b)
		if ba == bb {
			return ia < ib
		}
		return p.dom.Dominates(ba, bb)
	}
	var kept []plannedRef
	for i, r := range refs {
		dominated := false
		for j, q := range refs {
			if i == j || q.res != r.res {
				continue
			}
			if dominates(q.at, r.at) && !(dominates(r.at, q.at) && j > i) {
				dominated = true
				break
			}
		}
		if !dominated {
			kept = append(kept, r)
		}
	}
	return kept
}

// findLiveIn returns the web's unique live-in resource: the version used
// inside the interval but defined outside it (or never defined, i.e.
// version 0). NoResource if the web has none.
func findLiveIn(w *web) ir.ResourceID {
	for _, r := range w.resources {
		if _, definedInside := w.defsInInterval[r]; !definedInside {
			return r
		}
	}
	return ir.NoResource
}

// liveOut reports whether the web version r is live out of the
// interval: defined inside it by one of the web's stores or phis, and
// used outside it.
func (pl *webPlan) liveOut(w *web, r ir.ResourceID) bool {
	return w.usedOutside[r] && (pl.definedByStore[r] || pl.definedByPhi[r] != nil)
}

// reachingWebDefAt finds the web version of the base live at the end of
// the given block: the nearest definition of the base scanning backward
// through the block and up the dominator tree. Returns NoResource when
// the reaching version does not belong to this web (another web of the
// same base, or a version from outside the interval).
func (p *promoter) reachingWebDefAt(w *web, blk *ir.Block) ir.ResourceID {
	for b := blk; b != nil; {
		for i := len(b.Instrs) - 1; i >= 0; i-- {
			for _, d := range b.Instrs[i].MemDefs {
				if p.f.BaseOf(d.Res).ID == w.base {
					if w.defsInInterval[d.Res] != nil {
						return d.Res
					}
					return ir.NoResource
				}
			}
		}
		next := p.dom.Idom(b)
		if next == nil || next == b {
			return ir.NoResource
		}
		b = next
	}
	return ir.NoResource
}
