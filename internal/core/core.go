// Package core implements the paper's primary contribution: interval-
// scoped, profile-driven scalar register promotion on SSA form (Sastry
// and Ju, PLDI 1998).
//
// The driver walks the function's interval tree bottom-up. Within an
// interval, the unit of promotion is a memory SSA web — the equivalence
// class of singleton resource versions connected by memphi instructions
// (built with union-find, the paper's Figure 3). For each web the pass
// computes, from profile frequencies, the profit of replacing the web's
// loads and stores with register traffic:
//
//	profit = freq(replaceable loads) + freq(deletable stores)
//	       - freq(loads added at phi leaves)
//	       - freq(stores added for aliased loads and at interval tails)
//
// When promotion is profitable, loads are replaced by copies from
// registers materialized along the web's phi structure
// (materializeStoreValue, Figure 6), compensation loads are placed at
// phi leaves on the paths carrying aliased definitions, compensation
// stores are placed before aliased loads and in interval tail blocks,
// and the original stores die during the incremental SSA update for the
// cloned store definitions. Where removing stores alone is
// unprofitable, only loads are replaced and the variable lives in both
// memory and a register. Inner intervals leave dummy aliased loads in
// their preheaders so outer intervals keep memory consistent at the
// boundary.
package core

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/profile"
	"repro/internal/ssa"
)

// Scope selects the promotion scope.
type Scope int

const (
	// ScopeIntervals promotes within each interval of the interval
	// tree, bottom-up — the paper's second approach and its actual
	// algorithm.
	ScopeIntervals Scope = iota
	// ScopeWholeFunction promotes once over the whole function body
	// (the root pseudo-interval) — the paper's first approach, kept as
	// an ablation: it wins on hot loops but inserts redundant loads and
	// stores around every aliased reference elsewhere in the function,
	// which is exactly why the paper rejects it.
	ScopeWholeFunction
)

// Config controls the promotion pass.
type Config struct {
	// Profile supplies block frequencies; required.
	Profile *profile.FuncProfile
	// Scope selects interval-based promotion (the paper's algorithm,
	// default) or whole-function-scope promotion (its rejected first
	// approach, for the ablation benchmarks).
	Scope Scope
	// CountTailStores includes the frequency of stores inserted at
	// interval tails in the store-removal profit. The paper's printed
	// formula omits them; counting them (the default used by the
	// benchmark harness) is strictly safer. Disable to match the
	// paper's formula exactly — the ablation benchmarks compare both.
	CountTailStores bool
	// Dom and DF optionally supply prebuilt analyses of f's current CFG
	// (the pipeline passes its transform chain's). When Dom is
	// nil or DF is invalid, PromoteFunction computes its own.
	Dom *cfg.DomTree
	DF  cfg.DomFrontiers
}

// Stats reports what promotion did to one function.
type Stats struct {
	WebsConsidered  int
	WebsPromoted    int // full promotions (stores removed or no stores existed)
	WebsLoadOnly    int // partial: loads replaced, stores kept
	WebsRejected    int // unprofitable
	WebsDemoted     int // profitable but over the pressure budget
	LoadsReplaced   int
	StoresDeleted   int
	LoadsInserted   int
	StoresInserted  int
	DummyLoadsAdded int
}

// Add accumulates other into s.
func (s *Stats) Add(other Stats) {
	s.WebsConsidered += other.WebsConsidered
	s.WebsPromoted += other.WebsPromoted
	s.WebsLoadOnly += other.WebsLoadOnly
	s.WebsRejected += other.WebsRejected
	s.WebsDemoted += other.WebsDemoted
	s.LoadsReplaced += other.LoadsReplaced
	s.StoresDeleted += other.StoresDeleted
	s.LoadsInserted += other.LoadsInserted
	s.StoresInserted += other.StoresInserted
	s.DummyLoadsAdded += other.DummyLoadsAdded
}

// PromoteFunction runs register promotion over f, which must be in SSA
// form with memory resources annotated, on the normalized CFG described
// by forest. It returns statistics about the transformation.
func PromoteFunction(f *ir.Function, forest *cfg.Forest, config Config) (*Stats, error) {
	return promote(f, forest, config, pressureBudget{})
}

// pressureBudget makes promotion pressure-aware; only
// PromoteUnderPressure sets one. When limit is positive, a web is
// promoted only if, in every block its promoted register spans, the
// pre-promotion register pressure (block, indexed by ir.BlockID;
// blocks beyond the slice count as 0) plus the registers charged by
// promotions so far plus this web's one register stays within limit.
// Webs that do not fit are demoted (left in memory, counted in
// Stats.WebsDemoted), and within an interval webs are considered in
// profit-per-pressure order instead of construction order. The budget is a
// placement heuristic, not a bound on regalloc colors.
type pressureBudget struct {
	limit int
	block []int
}

func promote(f *ir.Function, forest *cfg.Forest, config Config, budget pressureBudget) (*Stats, error) {
	if config.Profile == nil {
		return nil, fmt.Errorf("core: promotion requires a profile")
	}
	p := &promoter{
		f:      f,
		forest: forest,
		config: config,
		budget: budget,
		stats:  &Stats{},
	}
	p.dom = config.Dom
	if p.dom == nil {
		p.dom = cfg.BuildDomTree(f)
	}
	p.df = config.DF
	if !p.df.Valid() {
		p.df = cfg.BuildDomFrontiers(p.dom)
	}
	if budget.limit > 0 {
		p.extra = make([]int, f.BlockIDBound())
	}

	var err error
	if config.Scope == ScopeWholeFunction {
		// The paper's first approach: one promotion pass over the whole
		// function body, ignoring interval structure.
		err = p.promoteInInterval(forest.Root)
	} else {
		forest.Root.Walk(func(iv *cfg.Interval) {
			if err != nil || iv.Root {
				return
			}
			if e := p.promoteInInterval(iv); e != nil {
				err = e
			}
		})
	}
	if err != nil {
		return nil, err
	}

	// The paper's cleanup(): dummy aliased loads served their purpose;
	// delete them, then sweep the copy/dead-code residue.
	for _, in := range p.dummies {
		if in.Parent != nil {
			in.Parent.Remove(in)
		}
	}
	opt.Cleanup(f)
	return p.stats, nil
}

type promoter struct {
	f      *ir.Function
	forest *cfg.Forest
	config Config
	budget pressureBudget
	stats  *Stats
	dom    *cfg.DomTree
	df     cfg.DomFrontiers
	// extra, indexed by block ID, counts the registers already charged
	// to each block by promotions in this pass (only allocated under a
	// pressure budget).
	extra []int

	// updater runs every web's SSA update, reusing its per-version
	// state across the function.
	updater ssa.Updater
	// refs, indexed by base ResourceID, lists the instructions that
	// define or use a version of each base. indexRefs builds it in one
	// counting and one filling pass over f; every promotion step that
	// inserts a memory reference appends the instruction where it
	// inserts it (addRef); baseRefs drops removed and rewritten entries
	// when it reads a list. baseSeen marks the bases a walk has taken.
	refs     [][]*ir.Instr
	baseSeen []bool
	// dummies lists the dummy aliased loads promotion inserted, which
	// cleanup deletes.
	dummies []*ir.Instr
	// constructSSAWebs' union-find parents, web lookup, outside-use
	// index and in-interval defining instructions, indexed by
	// ResourceID and kept for the whole function; seeded lists the
	// entries its last call set. One slice serves every web of the
	// interval, since each version belongs to one web.
	parent      []ir.ResourceID
	webOf       []*web
	usedOutside []bool
	defIn       []*ir.Instr
	seeded      []ir.ResourceID
	// The current interval's webs and their reference lists, carved
	// from slices reused by every interval.
	webStore   []web
	webList    []*web
	resStore   []ir.ResourceID
	instrStore []*ir.Instr
	siteStore  []memRefSite
	// planWeb's per-version marks, indexed by ResourceID: versions an
	// aliased load depends on, and versions with a planned load or
	// store. planTouched lists the entries set; markWork is the
	// dependence walk's stack.
	depends     []bool
	loadSeen    []bool
	storeSeen   []bool
	planTouched []ir.ResourceID
	markWork    []ir.ResourceID
	// The transformer's per-web scratch (see transformer), cleared
	// through vrTouched and leafLoads when the web is done.
	vrMap     []ir.RegID
	vrTouched []ir.ResourceID
	leafSeen  []bool
	leafLoads []leafLoad
	oldSet    []ir.ResourceID
	cloned    []ir.ResourceID
}

// growTo returns s extended with zero values to length n.
func growTo[T any](s []T, n int) []T {
	if k := n - len(s); k > 0 {
		s = append(s, make([]T, k)...)
	}
	return s
}

// resize returns a slice of n zero values, reusing s's array when it
// is large enough.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		s = s[:n]
		clear(s)
		return s
	}
	return make([]T, n)
}

// indexRefs builds the per-base reference index over f: one pass
// counts each base's references, which sizes its list within one
// backing array, and a second fills the lists in layout order. An
// instruction appears once on each list of a base it references.
func (p *promoter) indexRefs() {
	res := p.f.Resources
	// Size the index by the largest base ID: SSA versions, which
	// outnumber the bases, never index it.
	numBases := 0
	for _, r := range res {
		if r.IsBase() {
			numBases = int(r.ID) + 1
		}
	}
	count := make([]int, numBases)
	total := 0
	for _, b := range p.f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.MemDefs {
				count[res[d.Res].Orig]++
			}
			for _, u := range in.MemUses {
				count[res[u.Res].Orig]++
			}
			total += len(in.MemDefs) + len(in.MemUses)
		}
	}
	backing := make([]*ir.Instr, total)
	p.refs = make([][]*ir.Instr, numBases)
	p.baseSeen = make([]bool, numBases)
	off := 0
	for base, n := range count {
		p.refs[base] = backing[off : off : off+n]
		off += n
	}
	for _, b := range p.f.Blocks {
		for _, in := range b.Instrs {
			for _, d := range in.MemDefs {
				p.indexRef(res[d.Res].Orig, in)
			}
			for _, u := range in.MemUses {
				p.indexRef(res[u.Res].Orig, in)
			}
		}
	}
}

// indexRef appends in to base's list unless in is already its last
// entry (an instruction's references to one base are indexed together).
func (p *promoter) indexRef(base ir.ResourceID, in *ir.Instr) {
	l := p.refs[base]
	if n := len(l); n > 0 && l[n-1] == in {
		return
	}
	p.refs[base] = append(l, in)
}

// addRef records an instruction promotion inserted that references a
// version of base.
func (p *promoter) addRef(base ir.ResourceID, in *ir.Instr) {
	p.refs[base] = append(p.refs[base], in)
}

// baseRefs returns base's reference list after dropping, in place, the
// entries that no longer reference it: instructions removed from their
// block (Parent == nil) and loads rewritten into copies.
func (p *promoter) baseRefs(base ir.ResourceID) []*ir.Instr {
	l := p.refs[base]
	kept := l[:0]
	for _, in := range l {
		if in.Parent != nil && len(in.MemDefs)+len(in.MemUses) > 0 {
			kept = append(kept, in)
		}
	}
	clear(l[len(kept):])
	p.refs[base] = kept
	return kept
}

// freq returns the profile frequency of the block containing the given
// instruction insertion point.
func (p *promoter) freq(b *ir.Block) float64 { return p.config.Profile.BlockFreq(b) }

// candidate is one web of an interval with its plan and, under a
// pressure budget, its sort score.
type candidate struct {
	w     *web
	plan  *webPlan
	score float64
}

func (p *promoter) promoteInInterval(iv *cfg.Interval) error {
	// Every web is planned once, before any is promoted. Promoting a web
	// leaves the other webs' plans unchanged: it renames only uses of
	// its own versions, and the definitions it inserts are current only
	// where its own versions were.
	webs := p.constructSSAWebs(iv)
	cands := make([]candidate, len(webs))
	for i, w := range webs {
		cands[i] = candidate{w: w, plan: p.planWeb(iv, w)}
	}
	if p.budget.limit > 0 {
		// Spend the budget on the best webs first, by profit per unit of
		// pressure cost: a web referenced only in cold blocks is cheap
		// to carry; one spanning the hot loop body is not.
		for i := range cands {
			c := &cands[i]
			cost := p.pressureCost(iv, c.w)
			if cost <= 0 {
				cost = 1
			}
			c.score = c.plan.profit() / cost
		}
		sort.SliceStable(cands, func(i, j int) bool {
			if cands[i].score != cands[j].score {
				return cands[i].score > cands[j].score
			}
			return cands[i].plan.profit() > cands[j].plan.profit()
		})
	}
	for _, c := range cands {
		if err := p.promoteInWeb(iv, c.w, c.plan); err != nil {
			return err
		}
	}
	return nil
}

// spanBlocks returns the blocks a web's promoted register is charged
// to: every block referencing the web, plus the interval boundary (the
// preheader holds the canonical load and the header carries the value
// in). Blocks the register merely passes through are not charged — the
// budget is a placement heuristic; PromoteUnderPressure's trial loop
// supplies the hard color guarantee.
func (p *promoter) spanBlocks(iv *cfg.Interval, w *web) []*ir.Block {
	seen := make(map[ir.BlockID]bool)
	var span []*ir.Block
	add := func(b *ir.Block) {
		if b != nil && !seen[b.ID] {
			seen[b.ID] = true
			span = append(span, b)
		}
	}
	if !iv.Root {
		add(iv.Preheader)
		add(iv.Header)
	}
	for _, in := range w.loads {
		add(in.Parent)
	}
	for _, in := range w.stores {
		add(in.Parent)
	}
	for _, r := range w.aliasedLoads {
		add(r.in.Parent)
	}
	for _, r := range w.aliasedDefs {
		add(r.in.Parent)
	}
	for _, in := range w.memPhis {
		add(in.Parent)
	}
	return span
}

// pressureCost is the spill-cost weight of carrying the web in a
// register: profile frequency summed over the span (the static
// estimator's frequency is 10^loop-depth, so this is exactly the
// loop-depth × execution-frequency weight of the classic spill metric).
func (p *promoter) pressureCost(iv *cfg.Interval, w *web) float64 {
	cost := 0.0
	for _, b := range p.spanBlocks(iv, w) {
		cost += p.freq(b)
	}
	return cost
}

// fitsPressure reports whether promoting one more register for w keeps
// every spanned block within the pressure budget.
func (p *promoter) fitsPressure(iv *cfg.Interval, w *web) bool {
	if p.budget.limit <= 0 {
		return true
	}
	for _, b := range p.spanBlocks(iv, w) {
		base := 0
		if int(b.ID) < len(p.budget.block) {
			base = p.budget.block[b.ID]
		}
		extra := 0
		if int(b.ID) < len(p.extra) {
			extra = p.extra[b.ID]
		}
		if base+extra+1 > p.budget.limit {
			return false
		}
	}
	return true
}

// chargePressure records w's promoted register against its span.
func (p *promoter) chargePressure(iv *cfg.Interval, w *web) {
	if p.budget.limit <= 0 {
		return
	}
	for _, b := range p.spanBlocks(iv, w) {
		if int(b.ID) < len(p.extra) {
			p.extra[b.ID]++
		}
	}
}

// promoteInWeb is the paper's Figure 4, applied to w with its plan.
func (p *promoter) promoteInWeb(iv *cfg.Interval, w *web, plan *webPlan) error {
	p.stats.WebsConsidered++

	if plan.profit() < 0 {
		p.stats.WebsRejected++
		// An unpromoted web with references still needs the parent to
		// keep memory valid at the interval boundary.
		p.addDummyLoad(iv, w, plan)
		return nil
	}
	if !p.fitsPressure(iv, w) {
		// Profitable, but its register would push some spanned block
		// over the pressure budget: partially demote — the web stays in
		// memory — rather than blow the cap.
		p.stats.WebsDemoted++
		p.addDummyLoad(iv, w, plan)
		return nil
	}

	if w.numDefs == 0 {
		// No definitions: one load in the preheader, every load in the
		// web becomes a copy.
		p.promoteLoadOnlyWeb(iv, w, plan)
		p.stats.WebsPromoted++
		p.chargePressure(iv, w)
		if len(w.aliasedLoads) > 0 {
			p.addDummyLoad(iv, w, plan)
		}
		return nil
	}

	t := &transformer{p: p, iv: iv, w: w, plan: plan}
	t.begin()
	defer t.end()
	t.initVRMap()
	t.insertLoadsAtPhiLeaves()
	t.replaceLoadsByCopies()

	if plan.removeStores {
		t.insertStoresForAliasedLoads()
		t.insertStoresAtIntervalTails()
		if err := t.updateSSAAndDeleteStores(); err != nil {
			return err
		}
		p.stats.WebsPromoted++
	} else {
		p.stats.WebsLoadOnly++
	}
	p.chargePressure(iv, w)
	if len(w.aliasedLoads) > 0 {
		p.addDummyLoad(iv, w, plan)
	}
	return nil
}

// promoteLoadOnlyWeb handles the defs == {} branch of Figure 4.
func (p *promoter) promoteLoadOnlyWeb(iv *cfg.Interval, w *web, plan *webPlan) {
	pre := iv.Preheader
	liveIn := plan.liveIn
	t := p.f.NewReg(p.f.BaseOf(liveIn).Name)
	ld := ir.NewInstr(ir.OpLoad, t)
	ld.Loc = p.f.Res(liveIn).Loc
	ld.MemUses = []ir.MemRef{{Res: liveIn}}
	if iv.Root {
		// Whole-function scope: the "preheader" is the entry block
		// itself, and the web's loads may sit anywhere in it — the
		// canonical load must come first to dominate them all.
		pre.InsertAfterPhis(ld)
	} else {
		// The preheader is strictly outside the interval, so its end
		// dominates every block (and hence every load) inside.
		pre.InsertBeforeTerm(ld)
	}
	p.addRef(w.base, ld)
	p.stats.LoadsInserted++

	for _, ref := range w.loads {
		replaceWithCopy(ref, ir.RegVal(t))
		p.stats.LoadsReplaced++
	}
}

// addDummyLoad leaves the paper's dummy aliased load in the interval
// preheader, referencing the web's live-in resource, so the parent
// interval treats the boundary as an aliased load site. Webs with no
// live-in value (everything they touch is defined inside) need none.
func (p *promoter) addDummyLoad(iv *cfg.Interval, w *web, plan *webPlan) {
	if iv.Root {
		return // no enclosing interval to inform
	}
	if plan.liveIn == ir.NoResource {
		return
	}
	if len(w.loads) == 0 && len(w.stores) == 0 && len(w.aliasedLoads) == 0 {
		return
	}
	dummy := ir.NewInstr(ir.OpDummyLoad, ir.NoReg)
	dummy.MemUses = []ir.MemRef{{Res: plan.liveIn, Aliased: true}}
	iv.Preheader.InsertBeforeTerm(dummy)
	p.addRef(w.base, dummy)
	p.dummies = append(p.dummies, dummy)
	p.stats.DummyLoadsAdded++
}

// replaceWithCopy rewrites a load instruction in place into a copy of
// the given value, clearing its memory reference.
func replaceWithCopy(load *ir.Instr, v ir.Value) {
	load.Op = ir.OpCopy
	load.Args = []ir.Value{v}
	load.Loc = ir.MemLoc{}
	load.MemUses = nil
}
