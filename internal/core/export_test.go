package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
)

// PromoteCheckingRefs runs PromoteFunction's interval walk over f, with
// no pressure budget and without the final cleanup, and after every
// web compares the promoter's per-base reference index with a rescan
// of f. It returns the number of webs checked and the first difference
// found.
func PromoteCheckingRefs(f *ir.Function, forest *cfg.Forest, config Config) (int, error) {
	p := &promoter{f: f, forest: forest, config: config, stats: &Stats{}}
	p.dom = cfg.BuildDomTree(f)
	p.df = cfg.BuildDomFrontiers(p.dom)
	webs := 0
	var err error
	visit := func(iv *cfg.Interval) {
		if err != nil {
			return
		}
		ws := p.constructSSAWebs(iv)
		plans := make([]*webPlan, len(ws))
		for i, w := range ws {
			plans[i] = p.planWeb(iv, w)
		}
		for i, w := range ws {
			if err = p.promoteInWeb(iv, w, plans[i]); err != nil {
				return
			}
			webs++
			if err = p.checkRefIndex(); err != nil {
				err = fmt.Errorf("after web %d (%s) of interval b%d: %w", webs, f.Res(w.base), iv.Header.ID, err)
				return
			}
		}
	}
	if config.Scope == ScopeWholeFunction {
		visit(forest.Root)
	} else {
		forest.Root.Walk(func(iv *cfg.Interval) {
			if !iv.Root {
				visit(iv)
			}
		})
	}
	return webs, err
}

// checkRefIndex compares every base's list in the reference index,
// read as baseRefs reads it but without compacting it, with the
// instructions of f that reference the base. It also checks that block
// IDs increase along f.Blocks, which the SSA update's phi placement
// order relies on.
func (p *promoter) checkRefIndex() error {
	f := p.f
	res := f.Resources
	want := make(map[ir.ResourceID]map[*ir.Instr]bool)
	for i, b := range f.Blocks {
		if i > 0 && f.Blocks[i-1].ID >= b.ID {
			return fmt.Errorf("block %v follows %v in layout", b, f.Blocks[i-1])
		}
		for _, in := range b.Instrs {
			for _, set := range [][]ir.MemRef{in.MemDefs, in.MemUses} {
				for _, ref := range set {
					base := res[ref.Res].Orig
					if want[base] == nil {
						want[base] = make(map[*ir.Instr]bool)
					}
					want[base][in] = true
				}
			}
		}
	}
	for base, list := range p.refs {
		got := make(map[*ir.Instr]bool)
		for _, in := range list {
			if in.Parent == nil || len(in.MemDefs)+len(in.MemUses) == 0 {
				continue // stale: baseRefs drops it
			}
			if got[in] {
				return fmt.Errorf("%s lists %v twice", f.Res(ir.ResourceID(base)), in)
			}
			got[in] = true
			if !want[ir.ResourceID(base)][in] {
				return fmt.Errorf("%s lists %v, which does not reference it", f.Res(ir.ResourceID(base)), in)
			}
		}
		if len(got) != len(want[ir.ResourceID(base)]) {
			for in := range want[ir.ResourceID(base)] {
				if !got[in] {
					return fmt.Errorf("%s misses %v in %v", f.Res(ir.ResourceID(base)), in, in.Parent)
				}
			}
		}
	}
	return nil
}
