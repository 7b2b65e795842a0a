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
// of section 4.2 of the paper. Webs and their lists live in the
// promoter's per-interval scratch: they are valid until the next
// constructSSAWebs call.
type web struct {
	base      ir.ResourceID   // base resource all versions rename
	resources []ir.ResourceID // member versions, ascending

	// Reference sets, all restricted to the interval.
	loads        []*ir.Instr  // singleton loads (OpLoad)
	stores       []*ir.Instr  // singleton stores (OpStore)
	aliasedLoads []memRefSite // aliased uses: calls, pointer ops, dummies
	aliasedDefs  []memRefSite // aliased defs: calls, pointer stores
	memPhis      []*ir.Instr  // memphi instructions of the web

	// numDefs counts the web versions defined inside the interval (by
	// any kind of definition); the promoter's defIn index holds their
	// defining instructions.
	numDefs int

	// usedOutside, indexed by ResourceID and shared by every web of the
	// interval, marks the versions with a use outside the interval. One
	// walk of the reference index per interval fills it, and promoting
	// the interval's webs keeps it exact: promoting a web renames only
	// uses of its own versions and inserts only its own or fresh
	// versions, so no other web of the interval gains or loses an
	// outside use.
	usedOutside []bool

	// members and count are the member and per-refKind reference
	// counts constructSSAWebs sizes the lists by.
	members int
	count   [numRefKinds]int
}

// refKind classifies a web reference by the list that holds it.
type refKind int

const (
	refLoad refKind = iota
	refStore
	refAliasedLoad
	refAliasedDef
	refMemPhi
	numRefKinds
)

// defKind and useKind classify a definition and a use of a web version
// by the instruction that makes it; phi operands are web structure,
// not references (numRefKinds).
func defKind(in *ir.Instr) refKind {
	switch in.Op {
	case ir.OpMemPhi:
		return refMemPhi
	case ir.OpStore:
		return refStore
	}
	return refAliasedDef
}

func useKind(in *ir.Instr) refKind {
	switch in.Op {
	case ir.OpMemPhi:
		return numRefKinds
	case ir.OpLoad:
		return refLoad
	}
	return refAliasedLoad
}

// constructSSAWebs partitions the promotable resource versions
// referenced in the interval into webs: the union-find pass of the
// paper's Figure 3, seeded with every referenced resource and unioned
// across each memphi's target and operands. The union-find, the web
// lookup and the definition index are dense slices indexed by
// ResourceID that the promoter keeps for the whole function: each call
// first clears the entries the previous call seeded, then grows them
// over the versions promotion appended since. The webs and their
// reference lists are carved from the promoter's scratch, sized by a
// counting pass, so building them allocates nothing once the scratch
// has grown.
func (p *promoter) constructSSAWebs(iv *cfg.Interval) []*web {
	if p.refs == nil {
		p.indexRefs()
	}
	for _, r := range p.seeded {
		p.parent[r] = ir.NoResource
		p.webOf[r] = nil
		p.usedOutside[r] = false
		p.defIn[r] = nil
	}
	p.seeded = p.seeded[:0]
	n := len(p.f.Resources)
	for len(p.parent) < n {
		p.parent = append(p.parent, ir.NoResource)
	}
	p.webOf = growTo(p.webOf, n)
	p.usedOutside = growTo(p.usedOutside, n)
	p.defIn = growTo(p.defIn, n)
	parent, webOf, usedOutside := p.parent, p.webOf, p.usedOutside
	res := p.f.Resources

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

	promotable := func(r ir.ResourceID) bool { return res[res[r].Orig].Promotable() }
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

	// Mark the web versions used outside the interval, walking the
	// reference index of each base the interval's versions belong to:
	// every instruction that uses a web version is on its base's list.
	for _, r := range p.seeded {
		base := res[r].Orig
		if p.baseSeen[base] {
			continue
		}
		p.baseSeen[base] = true
		for _, in := range p.baseRefs(base) {
			if iv.Contains(in.Parent) {
				continue
			}
			for _, u := range in.MemUses {
				if parent[u.Res] != ir.NoResource {
					usedOutside[u.Res] = true
				}
			}
		}
	}
	for _, r := range p.seeded {
		p.baseSeen[res[r].Orig] = false
	}

	// Group into webs by representative. Visiting the seeded resources
	// in ascending order meets each class's root first, so the webs come
	// out ordered by smallest member and each member list is sorted.
	slices.Sort(p.seeded)
	numWebs := 0
	for _, r := range p.seeded {
		if find(r) == r {
			numWebs++
		}
	}
	p.webStore = resize(p.webStore, numWebs)
	p.webList = p.webList[:0]
	for _, r := range p.seeded {
		root := find(r)
		w := webOf[root]
		if w == nil {
			w = &p.webStore[len(p.webList)]
			w.base, w.usedOutside = res[r].Orig, usedOutside
			webOf[root] = w
			p.webList = append(p.webList, w)
		}
		webOf[r] = w
		w.members++
	}

	// Count each web's references, carve its lists from the scratch,
	// then fill them in a second pass over the interval (the paper's
	// single pass over the interval's instructions, preceded by a
	// counting one).
	p.scanWebRefs(iv, false)
	nInstr, nSite := 0, 0
	for _, w := range p.webList {
		nInstr += w.count[refLoad] + w.count[refStore] + w.count[refMemPhi]
		nSite += w.count[refAliasedLoad] + w.count[refAliasedDef]
	}
	p.resStore = resize(p.resStore, len(p.seeded))
	p.instrStore = resize(p.instrStore, nInstr)
	p.siteStore = resize(p.siteStore, nSite)
	ro, io, so := 0, 0, 0
	carve := func(n int) []*ir.Instr {
		io += n
		return p.instrStore[io-n : io-n : io]
	}
	carveSites := func(n int) []memRefSite {
		so += n
		return p.siteStore[so-n : so-n : so]
	}
	for _, w := range p.webList {
		ro += w.members
		w.resources = p.resStore[ro-w.members : ro-w.members : ro]
		w.loads = carve(w.count[refLoad])
		w.stores = carve(w.count[refStore])
		w.memPhis = carve(w.count[refMemPhi])
		w.aliasedLoads = carveSites(w.count[refAliasedLoad])
		w.aliasedDefs = carveSites(w.count[refAliasedDef])
	}
	for _, r := range p.seeded {
		w := webOf[r]
		w.resources = append(w.resources, r)
	}
	p.scanWebRefs(iv, true)
	return p.webList
}

// scanWebRefs visits every reference to a web version in the interval.
// Without fill it counts them per web and kind; with fill it appends
// them to the web's carved lists and indexes each version's defining
// instruction.
func (p *promoter) scanWebRefs(iv *cfg.Interval, fill bool) {
	webOf := p.webOf
	for _, b := range iv.Blocks {
		for _, in := range b.Instrs {
			for i := range in.MemDefs {
				r := in.MemDefs[i].Res
				w := webOf[r]
				if w == nil {
					continue // not promotable
				}
				k := defKind(in)
				if !fill {
					w.count[k]++
					continue
				}
				p.defIn[r] = in
				w.numDefs++
				switch k {
				case refMemPhi:
					w.memPhis = append(w.memPhis, in)
				case refStore:
					w.stores = append(w.stores, in)
				default:
					w.aliasedDefs = append(w.aliasedDefs, memRefSite{in, true, i})
				}
			}
			for i := range in.MemUses {
				r := in.MemUses[i].Res
				w := webOf[r]
				if w == nil {
					continue
				}
				k := useKind(in)
				if k == numRefKinds {
					continue // phi operands are web structure, not references
				}
				if !fill {
					w.count[k]++
					continue
				}
				if k == refLoad {
					w.loads = append(w.loads, in)
				} else {
					w.aliasedLoads = append(w.aliasedLoads, memRefSite{in, false, i})
				}
			}
		}
	}
}

// webPlan holds the placement and profitability analysis of section 4.3:
// the loads-added and stores-added sets, the live-in and live-out
// resources, and the profit components.
type webPlan struct {
	liveIn ir.ResourceID // version valid on interval entry (NoResource if none)

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

// definedByStore reports whether the version r is defined inside the
// current interval by a singleton store of its web.
func (p *promoter) definedByStore(r ir.ResourceID) bool {
	in := p.def(r)
	return in != nil && in.Op == ir.OpStore
}

// definedByPhi returns the memphi defining the version r inside the
// current interval, or nil.
func (p *promoter) definedByPhi(r ir.ResourceID) *ir.Instr {
	if in := p.def(r); in != nil && in.Op == ir.OpMemPhi {
		return in
	}
	return nil
}

// def returns the instruction defining the web version r inside the
// current interval, or nil. Versions appended after the interval's
// webs were built are defined by promotion, never by a web.
func (p *promoter) def(r ir.ResourceID) *ir.Instr {
	if int(r) < len(p.defIn) {
		return p.defIn[r]
	}
	return nil
}

// planWeb computes the analysis of section 4.3 for one web. Its
// per-version marks are dense slices in the promoter, cleared through
// planTouched before it returns.
func (p *promoter) planWeb(iv *cfg.Interval, w *web) *webPlan {
	n := len(p.f.Resources)
	p.depends = growTo(p.depends, n)
	p.loadSeen = growTo(p.loadSeen, n)
	p.storeSeen = growTo(p.storeSeen, n)
	defer p.clearPlanScratch()
	pl := &webPlan{liveIn: p.findLiveIn(w)}

	// loads-added: for each phi operand x:L that is a leaf (not defined
	// by a web phi) and not defined by a web store, a load of x at the
	// end of block L.
	for _, phi := range w.memPhis {
		blk := phi.Parent
		for i, u := range phi.MemUses {
			x := u.Res
			if p.definedByPhi(x) != nil || p.definedByStore(x) {
				continue
			}
			pl.loadsAdded = p.addPlanned(pl.loadsAdded, p.loadSeen, plannedRef{res: x, at: blk.Preds[i].Term()})
		}
	}

	// stores-added. First find every web resource an aliased load
	// depends on, transitively through phis.
	for _, al := range w.aliasedLoads {
		p.markDepends(al.res())
	}
	for len(p.markWork) > 0 {
		r := p.markWork[len(p.markWork)-1]
		p.markWork = p.markWork[:len(p.markWork)-1]
		if phi := p.definedByPhi(r); phi != nil {
			for _, u := range phi.MemUses {
				p.markDepends(u.Res)
			}
		}
	}
	// Case 1: store-defined phi operands x:L on paths feeding an
	// aliased load get a store at the end of L.
	for _, phi := range w.memPhis {
		if !p.depends[phi.MemDefs[0].Res] {
			continue
		}
		blk := phi.Parent
		for i, u := range phi.MemUses {
			if p.definedByStore(u.Res) {
				pl.storesAdded = p.addPlanned(pl.storesAdded, p.storeSeen, plannedRef{res: u.Res, at: blk.Preds[i].Term()})
			}
		}
	}
	// Case 2: an aliased load directly using a store-defined resource
	// gets a store immediately before it.
	for _, al := range w.aliasedLoads {
		if p.definedByStore(al.res()) {
			pl.storesAdded = p.addPlanned(pl.storesAdded, p.storeSeen, plannedRef{res: al.res(), at: al.in})
		}
	}
	pl.storesAdded = p.pruneDominatedStores(pl.storesAdded)

	// Interval tail stores: per exit edge, the reaching web definition;
	// a store is needed when it is a store- or phi-defined version with
	// uses outside the interval.
	for _, e := range iv.ExitEdges {
		r := p.reachingWebDefAt(w, e.From)
		if r == ir.NoResource || !p.liveOut(w, r) {
			continue
		}
		pl.tailStores = append(pl.tailStores, tailStore{res: r, tail: e.Tail})
	}

	// Profit (section 4.3). Replaceable loads are those whose resource
	// is defined by a web phi or store.
	for _, ld := range w.loads {
		x := ld.MemUses[0].Res
		if p.definedByPhi(x) != nil || p.definedByStore(x) {
			pl.loadProfit += p.freq(ld.Parent)
		}
	}
	if w.numDefs == 0 {
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

// addPlanned appends ref to refs unless refs already holds it. seen,
// indexed by ResourceID, marks the versions refs holds any pair for, so
// only a repeated version pays for the scan.
func (p *promoter) addPlanned(refs []plannedRef, seen []bool, ref plannedRef) []plannedRef {
	if seen[ref.res] {
		if slices.Contains(refs, ref) {
			return refs
		}
	} else {
		seen[ref.res] = true
		p.planTouched = append(p.planTouched, ref.res)
	}
	return append(refs, ref)
}

// markDepends marks r as a version an aliased load depends on, queueing
// it so the phi defining it marks its operands too.
func (p *promoter) markDepends(r ir.ResourceID) {
	if !p.depends[r] {
		p.depends[r] = true
		p.planTouched = append(p.planTouched, r)
		p.markWork = append(p.markWork, r)
	}
}

// clearPlanScratch clears the marks planWeb set.
func (p *promoter) clearPlanScratch() {
	for _, r := range p.planTouched {
		p.depends[r], p.loadSeen[r], p.storeSeen[r] = false, false, false
	}
	p.planTouched = p.planTouched[:0]
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
func (p *promoter) findLiveIn(w *web) ir.ResourceID {
	for _, r := range w.resources {
		if p.def(r) == nil {
			return r
		}
	}
	return ir.NoResource
}

// liveOut reports whether the web version r is live out of the
// interval: defined inside it by one of the web's stores or phis, and
// used outside it.
func (p *promoter) liveOut(w *web, r ir.ResourceID) bool {
	return w.usedOutside[r] && (p.definedByStore(r) || p.definedByPhi(r) != nil)
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
					if p.def(d.Res) != nil && p.webOf[d.Res] == w {
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
