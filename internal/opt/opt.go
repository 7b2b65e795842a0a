// Package opt provides the scalar cleanup passes that run after
// register promotion: copy propagation and dead code elimination. The
// promotion algorithm deliberately leaves its transformation residue —
// loads replaced by copy instructions, register phis mirroring memory
// phis, dead memory phis — and these passes sweep it away, exactly as
// the paper's cleanup() step does.
package opt

import (
	"repro/internal/ir"
	"repro/internal/ssa"
)

// CopyPropagate rewrites every use of a register defined by `dst = copy
// src` to src directly and removes the copies. It resolves copy chains
// and returns the number of copies removed. The function must be in SSA
// form.
func CopyPropagate(f *ir.Function) int {
	// Map each copy target to its (chain-resolved) source value.
	repl := make(map[ir.RegID]ir.Value)
	var copies []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpCopy {
				repl[in.Dst] = in.Args[0]
				copies = append(copies, in)
			}
		}
	}
	if len(copies) == 0 {
		return 0
	}
	resolve := func(v ir.Value) ir.Value {
		seen := 0
		for !v.IsConst() {
			next, ok := repl[v.Reg()]
			if !ok {
				break
			}
			v = next
			if seen++; seen > len(copies) {
				break // defensive: cyclic copies cannot occur in SSA
			}
		}
		return v
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if !a.IsConst() {
					if _, ok := repl[a.Reg()]; ok {
						in.Args[i] = resolve(a)
					}
				}
			}
		}
	}
	for _, c := range copies {
		c.Parent.Remove(c)
	}
	return len(copies)
}

// DCE removes instructions whose results are never used and which have
// no side effects: dead arithmetic, dead loads, dead copies, dead
// register phis, and dead memory phis. Stores, calls, prints, and
// terminators are roots. Liveness propagates through both the register
// operand graph and the memory version graph (a live instruction's
// memory uses keep the defining memphi alive). The function must be in
// SSA form: liveness is kept on what an instruction defines (its
// register, else its first memory definition), and SSA gives each of
// those exactly one defining instruction. Each block is compacted in
// place; removed instructions get a nil Parent. Returns the number of
// instructions removed.
func DCE(f *ir.Function) int {
	regDef := make([]*ir.Instr, f.NumRegs)
	resDef := make([]*ir.Instr, len(f.Resources))
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.HasDst() {
				regDef[in.Dst] = in
			}
			for _, d := range in.MemDefs {
				resDef[d.Res] = in
			}
		}
	}

	liveReg := make([]bool, f.NumRegs)
	liveRes := make([]bool, len(f.Resources))
	live := func(in *ir.Instr) bool {
		if in.HasDst() {
			return liveReg[in.Dst]
		}
		return len(in.MemDefs) > 0 && liveRes[in.MemDefs[0].Res]
	}
	var work []*ir.Instr
	// mark queues in the first time it is reached. An instruction that
	// defines nothing is reached only as a side-effect root, once.
	mark := func(in *ir.Instr) {
		switch {
		case in == nil || live(in):
			return
		case in.HasDst():
			liveReg[in.Dst] = true
		case len(in.MemDefs) > 0:
			liveRes[in.MemDefs[0].Res] = true
		}
		work = append(work, in)
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op.HasSideEffects() {
				mark(in)
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, a := range in.Args {
			if !a.IsConst() {
				mark(regDef[a.Reg()])
			}
		}
		for _, u := range in.MemUses {
			mark(resDef[u.Res])
		}
	}

	removed := 0
	for _, b := range f.Blocks {
		kept := b.Instrs[:0]
		for _, in := range b.Instrs {
			if in.Op.HasSideEffects() || live(in) {
				kept = append(kept, in)
			} else {
				in.Parent = nil
				removed++
			}
		}
		clear(b.Instrs[len(kept):])
		b.Instrs = kept
	}
	return removed
}

// Cleanup runs the full post-promotion sweep: copy propagation, dead
// code elimination, and trivial phi pruning, iterating until nothing
// changes.
func Cleanup(f *ir.Function) {
	for {
		n := CopyPropagate(f)
		n += DCE(f)
		n += ssa.PruneTrivialPhis(f)
		if n == 0 {
			return
		}
	}
}
