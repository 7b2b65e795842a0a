package ir

import (
	"fmt"
	"maps"
	"slices"
)

// Clone returns a deep copy of the function: blocks, instructions, CFG
// edges, stack slots, and the memory resource table are all fresh
// objects, while program-level state (the Prog pointer and Global
// objects referenced by memory locations) stays shared. Block IDs,
// register numbers, and resource IDs are preserved, so a clone prints
// identically to the original.
//
// The clone is not registered in the program; promotion's pressure cap
// and the diagnostics rules use it as a scratch copy to transform
// without touching the original.
func (f *Function) Clone() *Function { return f.CloneInto(f.Prog) }

// CloneInto is Clone for a function that is to live in program p, a
// separate compile of the same source: the copy's Prog is p, and every
// memory location that names a global of f's program is rebound to the
// global at the same position in p.Globals. It panics if the two
// programs' global lists differ in length or in any name. The pipeline
// uses it to roll a failing function of the promoted program back to
// the baseline program's copy of it.
func (f *Function) CloneInto(p *Program) *Function {
	nf := &Function{
		Name:       f.Name,
		Params:     slices.Clone(f.Params),
		Prog:       p,
		NumRegs:    f.NumRegs,
		regNames:   slices.Clone(f.regNames),
		nextBlock:  f.nextBlock,
		cfgVersion: f.cfgVersion,
	}
	if f.maxVer != nil {
		nf.maxVer = maps.Clone(f.maxVer)
	}

	slotMap := make(map[*Slot]*Slot, len(f.Slots))
	for _, s := range f.Slots {
		ns := &Slot{
			Name:       s.Name,
			Size:       s.Size,
			IsArray:    s.IsArray,
			FieldNames: slices.Clone(s.FieldNames),
			AddrTaken:  s.AddrTaken,
			Escapes:    s.Escapes,
			Index:      s.Index,
		}
		slotMap[s] = ns
		nf.Slots = append(nf.Slots, ns)
	}
	var globalMap map[*Global]*Global
	if p != f.Prog {
		globalMap = rebindGlobals(f.Prog, p)
	}
	remapLoc := func(l MemLoc) MemLoc {
		switch l.Kind {
		case LocSlot:
			l.Slot = slotMap[l.Slot]
		case LocGlobal:
			if globalMap != nil {
				g, ok := globalMap[l.Global]
				if !ok {
					panic(fmt.Sprintf("ir: CloneInto: %s references global %s outside its program", f.Name, l.Global.Name))
				}
				l.Global = g
			}
		}
		return l
	}

	nf.Resources = make([]*Resource, len(f.Resources))
	for i, r := range f.Resources {
		nr := *r
		nr.Loc = remapLoc(nr.Loc)
		nf.Resources[i] = &nr
	}

	blockMap := make(map[*Block]*Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	for i, b := range f.Blocks {
		nb := &Block{ID: b.ID, Func: nf}
		blockMap[b] = nb
		nf.Blocks[i] = nb
	}
	for _, b := range f.Blocks {
		nb := blockMap[b]
		nb.Preds = make([]*Block, len(b.Preds))
		for i, p := range b.Preds {
			nb.Preds[i] = blockMap[p]
		}
		nb.Succs = make([]*Block, len(b.Succs))
		for i, s := range b.Succs {
			nb.Succs[i] = blockMap[s]
		}
		nb.Instrs = make([]*Instr, len(b.Instrs))
		for i, in := range b.Instrs {
			nb.Instrs[i] = &Instr{
				Op:      in.Op,
				Dst:     in.Dst,
				Args:    slices.Clone(in.Args),
				Callee:  in.Callee,
				Loc:     remapLoc(in.Loc),
				MemDefs: slices.Clone(in.MemDefs),
				MemUses: slices.Clone(in.MemUses),
				Parent:  nb,
			}
		}
	}
	return nf
}

// rebindGlobals maps each global of from to the global at the same
// position in to, panicking unless both lists name the same globals in
// the same order.
func rebindGlobals(from, to *Program) map[*Global]*Global {
	if len(from.Globals) != len(to.Globals) {
		panic(fmt.Sprintf("ir: CloneInto: programs have %d and %d globals", len(from.Globals), len(to.Globals)))
	}
	m := make(map[*Global]*Global, len(from.Globals))
	for i, g := range from.Globals {
		h := to.Globals[i]
		if h.Name != g.Name {
			panic(fmt.Sprintf("ir: CloneInto: global %d is %s here and %s in the target program", i, g.Name, h.Name))
		}
		m[g] = h
	}
	return m
}
