package ir

import "fmt"

// Function is one procedure: an entry block, a set of basic blocks, a
// virtual register file, stack slots for address-exposed locals and local
// aggregates, and a memory resource table filled in by alias analysis and
// extended by SSA renaming.
type Function struct {
	Name   string
	Params []RegID // parameter registers, defined on entry
	Blocks []*Block
	Slots  []*Slot
	Prog   *Program

	NumRegs   int
	regNames  []string
	nextBlock BlockID
	maxVer    map[ResourceID]int // highest version per base resource

	// cfgVersion counts CFG shape mutations: block additions and
	// removals, edge splits, and any rewiring of Preds/Succs. Analyses
	// cached per function (internal/analysis) key their entries on it, so
	// every mutation point must bump it — the ir mutators below do, and
	// code that edits Preds/Succs slices directly must call
	// MarkCFGChanged itself (see DESIGN.md §8 for the contract).
	cfgVersion uint64

	// slotOffsets[i] is the frame offset of Slots[i]; frameSize is the
	// total activation size. Both are computed lazily by FrameLayout and
	// invalidated by NewSlot, so the interpreter can allocate frames with
	// pointer arithmetic instead of a per-call map.
	slotOffsets []int64
	frameSize   int64
	slotsLaid   bool

	// Resources is the function's memory resource table, indexed by
	// ResourceID. Base resources come first (one per location the
	// function may touch); SSA renaming appends versioned resources.
	Resources []*Resource
}

// NewFunction returns an empty function registered in prog.
func NewFunction(prog *Program, name string) *Function {
	f := &Function{Name: name, Prog: prog}
	if prog != nil {
		prog.AddFunction(f)
	}
	return f
}

// Entry returns the function entry block.
func (f *Function) Entry() *Block { return f.Blocks[0] }

// CFGVersion returns the CFG shape version counter. Two calls returning
// the same value bracket a region with no CFG mutations, so any
// analysis of the block graph computed in between is still valid.
func (f *Function) CFGVersion() uint64 { return f.cfgVersion }

// MarkCFGChanged bumps the CFG version counter. The ir-level mutators
// (NewBlock, RemoveBlock, SplitEdge, AddEdge, ReplacePred, RemovePred,
// Renumber) call it automatically; callers that rewire Preds or Succs
// slices directly must call it themselves.
func (f *Function) MarkCFGChanged() { f.cfgVersion++ }

// BlockIDBound returns an exclusive upper bound on the BlockIDs in use:
// every block of the function has ID < BlockIDBound(). Dense analyses
// size their ID-indexed slices with it. After Renumber the bound equals
// len(Blocks).
func (f *Function) BlockIDBound() BlockID { return f.nextBlock }

// Renumber reassigns dense BlockIDs 0..len(Blocks)-1 in block-list
// order, re-establishing the dense-numbering invariant after CFG edits
// have left holes (RemoveUnreachable) or growth (edge splitting). It
// bumps the CFG version when any ID changes, invalidating cached
// analyses, and must therefore not be called between collecting a
// profile and consuming it — block IDs are the profile's keys.
// cfg.Normalize renumbers exactly once per function, right after
// removing unreachable blocks and before any ID-keyed state exists.
func (f *Function) Renumber() {
	changed := false
	for i, b := range f.Blocks {
		if b.ID != BlockID(i) {
			b.ID = BlockID(i)
			changed = true
		}
	}
	if f.nextBlock != BlockID(len(f.Blocks)) {
		f.nextBlock = BlockID(len(f.Blocks))
		changed = true
	}
	if changed {
		f.MarkCFGChanged()
	}
}

// NewBlock creates a block with a fresh ID and appends it to the
// function.
func (f *Function) NewBlock() *Block {
	b := &Block{ID: f.nextBlock, Func: f}
	f.nextBlock++
	f.Blocks = append(f.Blocks, b)
	f.MarkCFGChanged()
	return b
}

// NewReg allocates a fresh virtual register. The name is a debugging
// hint and may be empty.
func (f *Function) NewReg(name string) RegID {
	r := RegID(f.NumRegs)
	f.NumRegs++
	f.regNames = append(f.regNames, name)
	return r
}

// RegName returns the debugging name hint of r, or "".
func (f *Function) RegName(r RegID) string {
	if int(r) < len(f.regNames) {
		return f.regNames[r]
	}
	return ""
}

// NewSlot creates a stack slot for an address-exposed local or local
// aggregate.
func (f *Function) NewSlot(name string, size int, isArray bool, fields []string) *Slot {
	s := &Slot{Name: name, Size: size, IsArray: isArray, FieldNames: fields, Index: len(f.Slots)}
	f.Slots = append(f.Slots, s)
	f.slotsLaid = false
	return s
}

// FrameLayout returns the per-slot frame offsets (indexed by
// Slot.Index) and the total frame size, laying slots out contiguously
// in declaration order. The layout is computed once and cached; NewSlot
// invalidates it. The interpreter resolves a slot cell as
// frameBase + offsets[slot.Index] + cellOffset.
func (f *Function) FrameLayout() ([]int64, int64) {
	if !f.slotsLaid || len(f.slotOffsets) != len(f.Slots) {
		offs := make([]int64, len(f.Slots))
		var size int64
		for i, s := range f.Slots {
			offs[i] = size
			size += int64(s.Size)
		}
		f.slotOffsets = offs
		f.frameSize = size
		f.slotsLaid = true
	}
	return f.slotOffsets, f.frameSize
}

// AddResource appends a base resource for the given location and returns
// it. Alias analysis uses this to seed the resource table.
func (f *Function) AddResource(name string, kind ResourceKind, loc MemLoc) *Resource {
	r := &Resource{
		ID:   ResourceID(len(f.Resources)),
		Name: name,
		Kind: kind,
		Loc:  loc,
	}
	r.Orig = r.ID
	f.Resources = append(f.Resources, r)
	return r
}

// NewVersion appends a fresh SSA version of the base resource orig and
// returns it. The version number is one greater than the highest existing
// version of that base.
func (f *Function) NewVersion(orig ResourceID) *Resource {
	base := f.Resources[orig]
	if !base.IsBase() {
		base = f.Resources[base.Orig]
	}
	if f.maxVer == nil {
		f.maxVer = make(map[ResourceID]int)
	}
	ver, ok := f.maxVer[base.ID]
	if !ok {
		for _, r := range f.Resources {
			if r.Orig == base.ID && r.Version > ver {
				ver = r.Version
			}
		}
	}
	nr := &Resource{
		ID:      ResourceID(len(f.Resources)),
		Name:    base.Name,
		Kind:    base.Kind,
		Orig:    base.ID,
		Version: ver + 1,
		Loc:     base.Loc,
	}
	f.maxVer[base.ID] = ver + 1
	f.Resources = append(f.Resources, nr)
	return nr
}

// Res returns the resource with the given ID.
func (f *Function) Res(id ResourceID) *Resource {
	return f.Resources[id]
}

// BaseOf returns the base resource of the given (possibly versioned)
// resource ID.
func (f *Function) BaseOf(id ResourceID) *Resource {
	return f.Resources[f.Resources[id].Orig]
}

// FindSlot returns the slot with the given name, or nil.
func (f *Function) FindSlot(name string) *Slot {
	for _, s := range f.Slots {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// RemoveBlock deletes b from the function's block list. The caller must
// have already unlinked its edges.
func (f *Function) RemoveBlock(b *Block) {
	for i, x := range f.Blocks {
		if x == b {
			f.Blocks = append(f.Blocks[:i], f.Blocks[i+1:]...)
			f.MarkCFGChanged()
			return
		}
	}
	panic(fmt.Sprintf("ir: block %v not in function %s", b, f.Name))
}

// SplitEdge inserts a new block on the edge from -> to and returns it.
// The new block ends in a jump to to. Positional phi arguments in to are
// preserved because the new block replaces from at the same predecessor
// index. If the edge appears multiple times (a conditional branch with
// identical targets) only the occurrence at the given successor index is
// split; pass -1 to split the first occurrence.
func (f *Function) SplitEdge(from, to *Block, succIdx int) *Block {
	if succIdx < 0 {
		succIdx = from.SuccIndex(to)
	}
	if succIdx < 0 || from.Succs[succIdx] != to {
		panic(fmt.Sprintf("ir: no edge %v -> %v at index %d", from, to, succIdx))
	}
	mid := f.NewBlock()
	mid.Append(NewInstr(OpJmp, NoReg))
	from.Succs[succIdx] = mid
	mid.Preds = []*Block{from}
	mid.Succs = []*Block{to}
	to.ReplacePred(from, mid)
	return mid
}

// Program is a whole compilation unit: an ordered set of functions plus
// the global memory objects they share.
type Program struct {
	Funcs   []*Function
	Globals []*Global

	funcsByName map[string]*Function
}

// NewProgram returns an empty program.
func NewProgram() *Program {
	return &Program{funcsByName: make(map[string]*Function)}
}

// AddFunction registers f in the program.
func (p *Program) AddFunction(f *Function) {
	f.Prog = p
	p.Funcs = append(p.Funcs, f)
	p.funcsByName[f.Name] = f
}

// ReplaceFunction substitutes nf for the registered function of the same
// name, preserving its position in Funcs. Calls are linked by name, so
// every call site picks up the replacement automatically. The pipeline
// uses this to swap a rolled-back copy in when a stage fails on one
// function.
func (p *Program) ReplaceFunction(nf *Function) {
	old := p.funcsByName[nf.Name]
	if old == nil {
		p.AddFunction(nf)
		return
	}
	for i, f := range p.Funcs {
		if f == old {
			p.Funcs[i] = nf
			break
		}
	}
	p.funcsByName[nf.Name] = nf
	nf.Prog = p
}

// Func returns the function with the given name, or nil.
func (p *Program) Func(name string) *Function {
	return p.funcsByName[name]
}

// FuncIndex returns the position of the named function in Funcs
// (declaration order), or -1. ReplaceFunction preserves positions, so
// the index is stable across rollbacks — the pipeline keys its
// canonical result ordering on it.
func (p *Program) FuncIndex(name string) int {
	f := p.funcsByName[name]
	if f == nil {
		return -1
	}
	for i, x := range p.Funcs {
		if x == f {
			return i
		}
	}
	return -1
}

// AddGlobal registers a global object and returns it.
func (p *Program) AddGlobal(name string, size int, isArray bool, fields []string) *Global {
	g := &Global{Name: name, Size: size, IsArray: isArray, FieldNames: fields}
	p.Globals = append(p.Globals, g)
	return g
}

// FindGlobal returns the global with the given name, or nil.
func (p *Program) FindGlobal(name string) *Global {
	for _, g := range p.Globals {
		if g.Name == name {
			return g
		}
	}
	return nil
}
