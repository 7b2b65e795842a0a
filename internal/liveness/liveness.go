// Package liveness computes static per-block register liveness for the
// IR: live-in/live-out bitsets indexed by block ID and the per-block and
// whole-function MaxLive (the largest number of registers simultaneously
// live at any program point). The analysis uses exactly the semantics
// regalloc's interference walk assumes — phi operands are live-out of
// the corresponding predecessor, not live-in of the phi's block, and
// phi definitions are killed at block entry — so regalloc consumes an
// Info directly and the two can never disagree about MaxLive.
package liveness

import (
	"repro/internal/bitset"
	"repro/internal/ir"
)

// Info is the liveness analysis result for one function. The per-block
// slices are indexed by ir.BlockID (bound f.BlockIDBound()); entries for
// IDs with no live block are nil.
type Info struct {
	// NumRegs is the register capacity the bitsets were built with.
	NumRegs int
	// LiveIn[id] holds the registers live at entry to block id. Phi
	// definitions are excluded (killed at entry) and phi operands are
	// charged to predecessors, matching regalloc.
	LiveIn []*bitset.Dense
	// LiveOut[id] holds the registers live at exit from block id,
	// including the block's outgoing phi operands.
	LiveOut []*bitset.Dense
	// BlockMaxLive[id] is the largest live count at any point inside
	// block id (sampled at live-out and after each instruction, exactly
	// as regalloc's interference walk samples it).
	BlockMaxLive []int
	// MaxLive is the maximum of BlockMaxLive — the function's register
	// pressure floor and a lower bound on regalloc Colors.
	MaxLive int
}

// Compute runs backward liveness to a fixed point over all blocks. It
// accepts SSA or non-SSA IR; blocks unreachable from the entry are
// analyzed like any other (their live-in simply never flows anywhere),
// which matches regalloc's whole-list walk.
func Compute(f *ir.Function) *Info {
	bound := int(f.BlockIDBound())
	n := f.NumRegs
	info := &Info{
		NumRegs:      n,
		LiveIn:       make([]*bitset.Dense, bound),
		LiveOut:      make([]*bitset.Dense, bound),
		BlockMaxLive: make([]int, bound),
	}
	for _, b := range f.Blocks {
		info.LiveIn[b.ID] = bitset.NewDense(n)
		info.LiveOut[b.ID] = bitset.NewDense(n)
	}

	out := bitset.NewDense(n)
	in := bitset.NewDense(n)
	for changed := true; changed; {
		changed = false
		for i := len(f.Blocks) - 1; i >= 0; i-- {
			b := f.Blocks[i]
			out.Reset()
			for _, s := range b.Succs {
				out.UnionWith(info.LiveIn[s.ID])
				for _, phi := range s.Phis() {
					if phi.Op != ir.OpPhi {
						continue
					}
					pi := s.PredIndex(b)
					if pi >= 0 && pi < len(phi.Args) && !phi.Args[pi].IsConst() {
						out.Set(int(phi.Args[pi].Reg()))
					}
				}
			}
			in.CopyFrom(out)
			for k := len(b.Instrs) - 1; k >= 0; k-- {
				instr := b.Instrs[k]
				if instr.HasDst() {
					in.Clear(int(instr.Dst))
				}
				if instr.Op == ir.OpPhi {
					continue // phi uses belong to predecessors
				}
				for _, a := range instr.Args {
					if !a.IsConst() {
						in.Set(int(a.Reg()))
					}
				}
			}
			if !out.Equal(info.LiveOut[b.ID]) {
				info.LiveOut[b.ID].CopyFrom(out)
				changed = true
			}
			if !in.Equal(info.LiveIn[b.ID]) {
				info.LiveIn[b.ID].CopyFrom(in)
				changed = true
			}
		}
	}

	// Per-block MaxLive: re-walk each block backward from its final
	// live-out, tracking the live count the way regalloc's interference
	// walk does (kill the definition, then add the uses, then sample).
	live := out // reuse the scratch set
	for _, b := range f.Blocks {
		live.CopyFrom(info.LiveOut[b.ID])
		count := live.Count()
		max := count
		for k := len(b.Instrs) - 1; k >= 0; k-- {
			instr := b.Instrs[k]
			if instr.HasDst() && live.Has(int(instr.Dst)) {
				live.Clear(int(instr.Dst))
				count--
			}
			if instr.Op != ir.OpPhi {
				for _, a := range instr.Args {
					if !a.IsConst() && !live.Has(int(a.Reg())) {
						live.Set(int(a.Reg()))
						count++
					}
				}
			}
			if count > max {
				max = count
			}
		}
		info.BlockMaxLive[b.ID] = max
		if max > info.MaxLive {
			info.MaxLive = max
		}
	}
	return info
}

// LiveAcross reports whether register r is live at any point in block id
// (live-in, live-out, or defined/used inside — approximated as live-in
// or live-out, which is exact for SSA webs spanning the block).
func (info *Info) LiveAcross(id ir.BlockID, r ir.RegID) bool {
	if int(id) >= len(info.LiveIn) || info.LiveIn[id] == nil {
		return false
	}
	return info.LiveIn[id].Has(int(r)) || info.LiveOut[id].Has(int(r))
}
