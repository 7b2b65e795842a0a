// Package regalloc measures register pressure: it builds the virtual
// register interference graph from a liveness analysis and colors it
// with a Chaitin/Briggs-style simplify-and-select pass, reporting the
// number of colors needed — the metric of the paper's Table 3, which
// shows register promotion trading memory traffic for register
// pressure.
package regalloc

import (
	"sort"

	"repro/internal/ir"
	"repro/internal/liveness"
)

// Result describes one function's register pressure.
type Result struct {
	// Colors is the number of colors the greedy simplify/select
	// coloring needed — the paper's register pressure measure.
	Colors int
	// Nodes counts the interference graph's nodes: every register the
	// function defines or uses, plus its parameters. A register whose
	// only appearance is a dead definition is a node too, with no edges.
	Nodes int
	// Edges counts interference edges.
	Edges int
	// MaxLive is the largest number of registers simultaneously live at
	// any program point, a lower bound on Colors.
	MaxLive int
	// Assignment maps each node to its color, and every other register
	// (one the function neither defines nor uses) to -1.
	Assignment []int
}

// Allocate computes liveness, builds the interference graph, and colors
// it. It accepts SSA or non-SSA IR: phi uses count as live-out of the
// corresponding predecessor, phi definitions interfere like ordinary
// definitions at block entry.
// MaxLive is taken from liveness.Compute directly, so regalloc and the
// static analysis layer can never disagree.
func Allocate(f *ir.Function) *Result {
	info := liveness.Compute(f)
	n := f.NumRegs

	// Interference graph. Walk each block backward from live-out; a
	// definition interferes with everything live across it. Copies get
	// the classic exception: `d = copy s` does not make d and s
	// interfere (they may share a register).
	adj := make([]map[ir.RegID]bool, n)
	addEdge := func(a, b ir.RegID) {
		if a == b {
			return
		}
		if adj[a] == nil {
			adj[a] = make(map[ir.RegID]bool)
		}
		if adj[b] == nil {
			adj[b] = make(map[ir.RegID]bool)
		}
		adj[a][b] = true
		adj[b][a] = true
	}
	isNode := make([]bool, n)
	for _, b := range f.Blocks {
		live := make(map[ir.RegID]bool)
		info.LiveOut[b.ID].ForEach(func(r int) { live[ir.RegID(r)] = true })
		for k := len(b.Instrs) - 1; k >= 0; k-- {
			instr := b.Instrs[k]
			if instr.HasDst() {
				isNode[instr.Dst] = true
				copySrc := ir.NoReg
				if instr.Op == ir.OpCopy && !instr.Args[0].IsConst() {
					copySrc = instr.Args[0].Reg()
				}
				for r := range live {
					if r != instr.Dst && r != copySrc {
						addEdge(instr.Dst, r)
					}
				}
				delete(live, instr.Dst)
			}
			if instr.Op != ir.OpPhi {
				for _, a := range instr.Args {
					if !a.IsConst() {
						live[a.Reg()] = true
						isNode[a.Reg()] = true
					}
				}
			}
		}
	}
	// Registers live into the entry block (parameters, and anything
	// read before it is written) are all defined at once on entry, so
	// no definition above adds their edges: they interfere pairwise.
	var entryLive []ir.RegID
	info.LiveIn[f.Entry().ID].ForEach(func(r int) {
		isNode[r] = true
		entryLive = append(entryLive, ir.RegID(r))
	})
	for i, a := range entryLive {
		for _, b := range entryLive[i+1:] {
			addEdge(a, b)
		}
	}
	for _, p := range f.Params {
		isNode[p] = true
	}

	return color(n, adj, isNode, info.MaxLive)
}

// color runs smallest-last simplify ordering and greedy select,
// returning the coloring statistics.
func color(n int, adj []map[ir.RegID]bool, isNode []bool, maxLive int) *Result {
	res := &Result{MaxLive: maxLive, Assignment: make([]int, n)}
	for i := range res.Assignment {
		res.Assignment[i] = -1
	}

	degree := make([]int, n)
	var nodes []ir.RegID
	for r := 0; r < n; r++ {
		if isNode[r] {
			nodes = append(nodes, ir.RegID(r))
			degree[r] = len(adj[r])
			res.Edges += len(adj[r])
		}
	}
	res.Edges /= 2
	res.Nodes = len(nodes)
	if res.Nodes == 0 {
		return res
	}

	// Simplify: repeatedly push a minimum-degree node.
	removed := make([]bool, n)
	stack := make([]ir.RegID, 0, len(nodes))
	remaining := len(nodes)
	for remaining > 0 {
		best := ir.NoReg
		for _, r := range nodes {
			if removed[r] {
				continue
			}
			if best == ir.NoReg || degree[r] < degree[best] {
				best = r
			}
		}
		removed[best] = true
		remaining--
		stack = append(stack, best)
		for nb := range adj[best] {
			if !removed[nb] {
				degree[nb]--
			}
		}
	}

	// Select: color in reverse removal order with the lowest free color.
	for i := len(stack) - 1; i >= 0; i-- {
		r := stack[i]
		used := make(map[int]bool, len(adj[r]))
		for nb := range adj[r] {
			if c := res.Assignment[nb]; c >= 0 {
				used[c] = true
			}
		}
		c := 0
		for used[c] {
			c++
		}
		res.Assignment[r] = c
		if c+1 > res.Colors {
			res.Colors = c + 1
		}
	}
	return res
}

// AllocateProgram colors every function and returns results keyed by
// function name, plus a deterministic name order for reporting.
func AllocateProgram(prog *ir.Program) (map[string]*Result, []string) {
	results := make(map[string]*Result, len(prog.Funcs))
	var names []string
	for _, f := range prog.Funcs {
		results[f.Name] = Allocate(f)
		names = append(names, f.Name)
	}
	sort.Strings(names)
	return results, names
}
