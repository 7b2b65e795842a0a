package core

import (
	"fmt"

	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/liveness"
	"repro/internal/opt"
	"repro/internal/regalloc"
	"repro/internal/ssa"
)

// maxPressureTrials bounds the descending working-budget search in
// PromoteUnderPressure. Each trial is a full clone-promote-destruct-
// color cycle; in practice the first or second budget already fits.
const maxPressureTrials = 6

// PressureResult records what pressure-aware promotion decided for one
// function: the color counts of the paper's Table 3 for the unpromoted
// baseline, the uncapped promotion, and the accepted configuration.
type PressureResult struct {
	// Cap is the requested color cap.
	Cap int
	// EffectiveCap is max(Cap, BaselineColors): if the function needs
	// more colors than the cap before any promotion, promotion cannot
	// fix that, and not promoting at all is always available — so the
	// guarantee is FinalColors <= EffectiveCap.
	EffectiveCap int
	// BaselineColors is the regalloc color count with promotion
	// skipped: the function after the cleanup promoted code also gets,
	// destructed — the same count as the paper's Table 3 "before".
	BaselineColors int
	// UncappedColors is the color count after unrestricted promotion.
	UncappedColors int
	// FinalColors is the color count of the accepted configuration.
	FinalColors int
	// BudgetUsed is the per-block pressure budget of the accepted
	// configuration: 0 when uncapped promotion already fit, -1 when no
	// trial fit and promotion was skipped entirely.
	BudgetUsed int
	// Trials counts the clone trials run (including the uncapped one).
	Trials int
	// Stats describes the accepted promotion (zero-valued when
	// promotion was skipped).
	Stats *Stats
}

// PromoteUnderPressure promotes f subject to a hard register-pressure
// cap: after promotion, destruction, and coloring, the function needs
// at most max(cap, baseline) colors, where baseline is what f needs
// when promotion is skipped.
//
// The per-block pressure budget inside the promoter is a placement
// heuristic — a greedy coloring can exceed MaxLive — so the hard
// guarantee comes from measuring: each candidate configuration is tried
// on a Clone (promote, SSA-destruct, color) and accepted only if it
// fits. Trials run uncapped first, then at descending budgets seeded
// from the baseline's per-block liveness; if nothing fits within
// maxPressureTrials, promotion is skipped, which meets the cap by
// construction. Clone preserves block IDs and register numbers and
// promotion is deterministic, so replaying the winning configuration on
// f reproduces the trial exactly.
func PromoteUnderPressure(f *ir.Function, forest *cfg.Forest, config Config, cap int) (*PressureResult, error) {
	if cap <= 0 {
		return nil, fmt.Errorf("core: pressure cap must be positive, got %d", cap)
	}
	res := &PressureResult{Cap: cap, BudgetUsed: -1, Stats: &Stats{}}

	// Baseline: the form f takes when promotion is skipped — the same
	// copy-propagation/DCE cleanup promoted code gets, then destruction.
	// Both run on a clone; the real f must stay in SSA for the promotion
	// below. The budget seeds come from the same cleaned form, so they
	// charge only registers the emitted code really keeps live.
	base := f.Clone()
	opt.Cleanup(base)
	seeds := liveness.Compute(base).BlockMaxLive
	ssa.Destruct(base)
	res.BaselineColors = regalloc.Allocate(base).Colors
	res.EffectiveCap = cap
	if res.BaselineColors > res.EffectiveCap {
		res.EffectiveCap = res.BaselineColors
	}

	// trial promotes a fresh clone under the given budget and reports
	// the resulting color count. The clone needs its own annotated
	// forest and dominance info: config's point into f's blocks.
	trial := func(budget pressureBudget) (int, error) {
		c := f.Clone()
		tc := config
		tc.Dom = nil
		tc.DF = cfg.DomFrontiers{}
		if _, err := promote(c, cfg.AnnotatedIntervals(c), tc, budget); err != nil {
			return 0, err
		}
		ssa.Destruct(c)
		return regalloc.Allocate(c).Colors, nil
	}

	accept := func(budget pressureBudget, colors int) error {
		stats, err := promote(f, forest, config, budget)
		if err != nil {
			return err
		}
		res.FinalColors = colors
		res.BudgetUsed = budget.limit
		res.Stats = stats
		return nil
	}

	// Trial 1: unrestricted promotion. If it fits the cap there is
	// nothing to demote.
	res.Trials++
	colors, err := trial(pressureBudget{})
	if err != nil {
		return nil, err
	}
	res.UncappedColors = colors
	if colors <= res.EffectiveCap {
		return res, accept(pressureBudget{}, colors)
	}

	// Descending working budgets. The budget is deliberately tried below
	// the cap too: greedy coloring can need more colors than the
	// per-block pressure.
	lo := res.EffectiveCap - (maxPressureTrials - 1)
	if lo < 1 {
		lo = 1
	}
	for limit := res.EffectiveCap; limit >= lo; limit-- {
		res.Trials++
		budget := pressureBudget{limit: limit, block: seeds}
		colors, err := trial(budget)
		if err != nil {
			return nil, err
		}
		if colors <= res.EffectiveCap {
			return res, accept(budget, colors)
		}
	}

	// Nothing fit: skip promotion. The cleaned, unpromoted function
	// needs BaselineColors <= EffectiveCap by construction.
	opt.Cleanup(f)
	res.FinalColors = res.BaselineColors
	return res, nil
}
