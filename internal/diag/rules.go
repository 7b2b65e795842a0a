package diag

import (
	"fmt"
	"sort"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/opt"
	"repro/internal/ssa"
)

// rule is one registered diagnostic. Rules needing SSA form run on the
// prepared clone; the unreachable rule runs on the original CFG, since
// normalization deletes exactly the blocks it wants to report.
type rule struct {
	name     string
	severity string
	desc     string
	needsSSA bool
	run      func(*context) []Finding
}

// ruleTable registers the rules, in execution order. Adding a rule is
// one entry here plus its run function.
var ruleTable = []rule{
	{"unreachable-block", SevWarn, "block unreachable from the function entry", false, runUnreachable},
	{"dead-store", SevWarn, "direct store whose value can never be read", true, runDeadStores},
	{"dominance", SevError, "SSA definition fails to dominate a use", true, runDominance},
	{"unpromotable-web", SevInfo, "memory web that can never be promoted, with the blocking alias reason", true, runUnpromotable},
	{"pressure-hotspot", SevInfo, "block register pressure at or above the threshold", true, runPressure},
}

// context carries one function's prepared analyses through the rules.
type context struct {
	orig      *ir.Function
	f         *ir.Function // normalized SSA clone; nil when prep failed
	dom       *cfg.DomTree
	threshold int
}

// analyzeFunc runs the selected rules over one function.
func analyzeFunc(f *ir.Function, selected []rule, opts Options) []Finding {
	ctx := &context{orig: f, threshold: opts.PressureThreshold}
	if ctx.threshold <= 0 {
		ctx.threshold = DefaultPressureThreshold
	}

	needSSA := false
	for _, r := range selected {
		if r.needsSSA {
			needSSA = true
			break
		}
	}
	var out []Finding
	if needSSA {
		clone := f.Clone()
		if _, err := cfg.Normalize(clone); err != nil {
			out = append(out, Finding{Rule: "analysis", Severity: SevError, Func: f.Name, Block: -1,
				Detail: fmt.Sprintf("cannot normalize: %v (SSA rules skipped)", err)})
		} else if dom, err := ssa.Build(clone); err != nil {
			out = append(out, Finding{Rule: "analysis", Severity: SevError, Func: f.Name, Block: -1,
				Detail: fmt.Sprintf("cannot build SSA: %v (SSA rules skipped)", err)})
		} else {
			ctx.f = clone
			ctx.dom = dom
		}
	}

	for _, r := range selected {
		if r.needsSSA && ctx.f == nil {
			continue
		}
		out = append(out, r.run(ctx)...)
	}
	return out
}

// runUnreachable reports blocks not reachable from the entry, on the
// original (pre-normalize) CFG. Block IDs in these findings are the
// original function's.
func runUnreachable(ctx *context) []Finding {
	f := ctx.orig
	if len(f.Blocks) == 0 {
		return nil
	}
	seen := map[*ir.Block]bool{f.Entry(): true}
	work := []*ir.Block{f.Entry()}
	for len(work) > 0 {
		b := work[len(work)-1]
		work = work[:len(work)-1]
		for _, s := range b.Succs {
			if !seen[s] {
				seen[s] = true
				work = append(work, s)
			}
		}
	}
	var out []Finding
	for _, b := range f.Blocks {
		if !seen[b] {
			out = append(out, Finding{Rule: "unreachable-block", Severity: SevWarn, Func: f.Name,
				Block: int(b.ID), Detail: fmt.Sprintf("block b%d (%d instruction(s)) is unreachable from entry", b.ID, len(b.Instrs))})
		}
	}
	return out
}

// runDeadStores reports stores DeadStoreElim would delete.
func runDeadStores(ctx *context) []Finding {
	var out []Finding
	for _, st := range opt.DeadStores(ctx.f) {
		out = append(out, Finding{Rule: "dead-store", Severity: SevWarn, Func: ctx.f.Name,
			Block:  int(st.Parent.ID),
			Detail: fmt.Sprintf("store to %s is never read on any path", locString(st.Loc))})
	}
	return out
}

// runDominance reports SSA dominance violations — definitions that fail
// to dominate a use. On IR produced by this repo's own frontend the rule
// is expected to stay silent; it exists for hand-written or mutated IR.
func runDominance(ctx *context) []Finding {
	if err := ssa.VerifyDominanceWith(ctx.f, ctx.dom); err != nil {
		return []Finding{{Rule: "dominance", Severity: SevError, Func: ctx.f.Name, Block: -1,
			Detail: err.Error()}}
	}
	return nil
}

// runUnpromotable reports memory webs promotion can never touch: array
// resources, and scalars referenced only through aliased operations,
// each with the blocking reason.
func runUnpromotable(ctx *context) []Finding {
	f := ctx.f
	type refCount struct{ direct, aliased, aliasedNonCall int }
	counts := make(map[ir.ResourceID]*refCount)
	tally := func(in *ir.Instr, ref ir.MemRef) {
		base := f.BaseOf(ref.Res)
		c := counts[base.ID]
		if c == nil {
			c = &refCount{}
			counts[base.ID] = c
		}
		if ref.Aliased {
			c.aliased++
			if in.Op != ir.OpCall && in.Op != ir.OpRet {
				c.aliasedNonCall++
			}
		} else {
			c.direct++
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Op == ir.OpMemPhi || in.Op == ir.OpDummyLoad {
				continue
			}
			for _, d := range in.MemDefs {
				tally(in, d)
			}
			for _, u := range in.MemUses {
				tally(in, u)
			}
		}
	}

	bases := make([]ir.ResourceID, 0, len(counts))
	for id := range counts {
		bases = append(bases, id)
	}
	sort.Slice(bases, func(i, j int) bool { return bases[i] < bases[j] })

	var out []Finding
	for _, id := range bases {
		res := f.Res(id)
		c := counts[id]
		var reason string
		switch {
		case !res.Promotable():
			reason = "array object: indexed accesses alias every element"
		case c.direct > 0:
			continue // has singleton refs; promotion can work on it
		case c.aliasedNonCall == 0:
			// Touched only by call/return summaries in this function —
			// nothing here blocks promotion elsewhere.
			continue
		case res.Loc.Kind == ir.LocSlot && res.Loc.Slot.Escapes:
			reason = "address escapes to a call or to memory; every access is a pointer access"
		case res.Loc.Kind == ir.LocSlot && res.Loc.Slot.AddrTaken:
			reason = "address taken; referenced only through pointers"
		case res.Loc.Kind == ir.LocGlobal && res.Loc.Global.AddrTaken:
			reason = "address taken; referenced only through pointers"
		default:
			reason = "referenced only through aliased operations"
		}
		out = append(out, Finding{Rule: "unpromotable-web", Severity: SevInfo, Func: f.Name, Block: -1,
			Detail: fmt.Sprintf("%s: never promotable — %s (%d direct, %d aliased ref(s))",
				res.Name, reason, c.direct, c.aliased)})
	}
	return out
}

// runPressure reports blocks whose static register pressure meets the
// threshold. Pressure is measured on a copy of the SSA clone after
// opt.DCE, the cleaned form promotion's pressure cap and Table 3's
// "colors before" also measure, so a dead definition (or a phi only a
// dead value feeds) never counts as a live value. The copy keeps the
// clone's block IDs.
func runPressure(ctx *context) []Finding {
	cleaned := ctx.f.Clone()
	opt.DCE(cleaned)
	live := liveness.Compute(cleaned)
	var out []Finding
	for _, b := range ctx.f.Blocks {
		ml := live.BlockMaxLive[b.ID]
		if ml >= ctx.threshold {
			out = append(out, Finding{Rule: "pressure-hotspot", Severity: SevInfo, Func: ctx.f.Name,
				Block:  int(b.ID),
				Detail: fmt.Sprintf("b%d keeps %d values live (threshold %d); promotion here trades memory traffic for spills", b.ID, ml, ctx.threshold)})
		}
	}
	return out
}

// locString renders a memory location for humans.
func locString(l ir.MemLoc) string {
	if l.Offset != 0 {
		return fmt.Sprintf("%s+%d", l.Object(), l.Offset)
	}
	return l.Object()
}
