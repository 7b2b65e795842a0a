// Package report regenerates the paper's evaluation tables over the
// workload suite: static memory-operation counts (Table 1), dynamic
// memory-operation counts (Table 2), and register pressure (Table 3),
// plus the ablation comparisons DESIGN.md calls for (SSA vs loop-based
// baseline, measured vs static profile, profit-formula variants). The
// same functions back cmd/rpbench and the root benchmark harness.
package report

import (
	"fmt"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/regalloc"
	"repro/internal/workload"
)

// Options configures table generation.
type Options struct {
	// Algorithm selects the promotion pass (default the paper's).
	Algorithm pipeline.Algorithm
	// StaticProfile switches the promoter to the loop-depth estimator.
	StaticProfile bool
	// PaperProfitFormula uses the exact printed profit formula.
	PaperProfitFormula bool
	// WholeFunctionScope promotes at whole-function scope (the paper's
	// rejected first approach).
	WholeFunctionScope bool
	// PreMemOpts runs the memory-SSA scalar optimizations before
	// promotion.
	PreMemOpts bool
	// Check selects the pipeline's self-checking level (stage-boundary
	// verification, paranoid semantic differential).
	Check pipeline.CheckLevel
	// FailFast aborts on the first stage failure instead of degrading
	// the affected function.
	FailFast bool
}

func (o Options) pipeline(skipMeasure bool) pipeline.Options {
	return pipeline.Options{
		Algorithm:          o.Algorithm,
		StaticProfile:      o.StaticProfile,
		PaperProfitFormula: o.PaperProfitFormula,
		WholeFunctionScope: o.WholeFunctionScope,
		PreMemOpts:         o.PreMemOpts,
		SkipMeasurement:    skipMeasure,
		Check:              o.Check,
		FailFast:           o.FailFast,
	}
}

// Row1 is one Table 1 row: static counts of singleton loads and stores
// before and after promotion. Positive improvement percentages mean
// fewer operations; the paper's rows are mostly negative (statics grow
// because promotion inserts compensation code on cold paths).
type Row1 struct {
	Name         string
	LoadsBefore  int
	LoadsAfter   int
	StoresBefore int
	StoresAfter  int
}

// LoadImprovement returns the static load improvement in percent.
func (r Row1) LoadImprovement() float64 { return improvement(r.LoadsBefore, r.LoadsAfter) }

// StoreImprovement returns the static store improvement in percent.
func (r Row1) StoreImprovement() float64 { return improvement(r.StoresBefore, r.StoresAfter) }

// TotalImprovement returns the static total improvement in percent.
func (r Row1) TotalImprovement() float64 {
	return improvement(r.LoadsBefore+r.StoresBefore, r.LoadsAfter+r.StoresAfter)
}

func improvement(before, after int) float64 {
	if before == 0 {
		return 0
	}
	return float64(before-after) / float64(before) * 100
}

// Table1 computes static memory operation counts for every workload.
func Table1(opts Options) ([]Row1, error) {
	var rows []Row1
	for _, w := range workload.Suite() {
		out, err := pipeline.Run(w.Src, opts.pipeline(true))
		if err != nil {
			return nil, fmt.Errorf("table1 %s: %w", w.Name, err)
		}
		rows = append(rows, Row1{
			Name:         w.Name,
			LoadsBefore:  out.StaticBefore.Loads,
			LoadsAfter:   out.StaticAfter.Loads,
			StoresBefore: out.StaticBefore.Stores,
			StoresAfter:  out.StaticAfter.Stores,
		})
	}
	return rows, nil
}

// Row2 is one Table 2 row: dynamic counts of singleton loads and stores
// before and after promotion.
type Row2 struct {
	Name         string
	LoadsBefore  int64
	LoadsAfter   int64
	StoresBefore int64
	StoresAfter  int64
}

// LoadImprovement returns the dynamic load improvement in percent.
func (r Row2) LoadImprovement() float64 {
	return improvement64(r.LoadsBefore, r.LoadsAfter)
}

// StoreImprovement returns the dynamic store improvement in percent.
func (r Row2) StoreImprovement() float64 {
	return improvement64(r.StoresBefore, r.StoresAfter)
}

// TotalImprovement returns the dynamic total improvement in percent.
func (r Row2) TotalImprovement() float64 {
	return improvement64(r.LoadsBefore+r.StoresBefore, r.LoadsAfter+r.StoresAfter)
}

func improvement64(before, after int64) float64 {
	if before == 0 {
		return 0
	}
	return float64(before-after) / float64(before) * 100
}

// Table2 measures dynamic memory operation counts for every workload.
func Table2(opts Options) ([]Row2, error) {
	var rows []Row2
	for _, w := range workload.Suite() {
		out, err := pipeline.Run(w.Src, opts.pipeline(false))
		if err != nil {
			return nil, fmt.Errorf("table2 %s: %w", w.Name, err)
		}
		rows = append(rows, Row2{
			Name:         w.Name,
			LoadsBefore:  out.Before.DynLoads(),
			LoadsAfter:   out.After.DynLoads(),
			StoresBefore: out.Before.DynStores(),
			StoresAfter:  out.After.DynStores(),
		})
	}
	return rows, nil
}

// MeanTotalImprovement returns the arithmetic mean of the per-benchmark
// total improvements — the paper's headline "~12% of memory operations"
// style number.
func MeanTotalImprovement(rows []Row2) float64 {
	if len(rows) == 0 {
		return 0
	}
	sum := 0.0
	for _, r := range rows {
		sum += r.TotalImprovement()
	}
	return sum / float64(len(rows))
}

// Row3 is one Table 3 row: colors needed to color the register
// interference graph of one routine, before and after promotion.
type Row3 struct {
	Benchmark    string
	Routine      string
	ColorsBefore int
	ColorsAfter  int
}

// Table3 measures register pressure on the routines promotion touched,
// mirroring the paper's "routines that had opportunities for
// promotion".
func Table3(opts Options) ([]Row3, error) {
	var rows []Row3
	for _, w := range workload.Suite() {
		unopt, err := pipeline.Run(w.Src, pipeline.Options{
			Algorithm:       pipeline.AlgNone,
			SkipMeasurement: true,
		})
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", w.Name, err)
		}
		opt, err := pipeline.Run(w.Src, opts.pipeline(true))
		if err != nil {
			return nil, fmt.Errorf("table3 %s: %w", w.Name, err)
		}
		beforeRes, _ := regalloc.AllocateProgram(unopt.Prog)
		afterRes, names := regalloc.AllocateProgram(opt.Prog)
		for _, fn := range names {
			stats := opt.Stats[fn]
			if stats == nil || stats.WebsPromoted+stats.WebsLoadOnly == 0 {
				continue // the paper selects routines with promotion opportunities
			}
			b, a := beforeRes[fn], afterRes[fn]
			if b == nil || a == nil {
				continue
			}
			rows = append(rows, Row3{
				Benchmark:    w.Name,
				Routine:      fn,
				ColorsBefore: b.Colors,
				ColorsAfter:  a.Colors,
			})
		}
	}
	return rows, nil
}

// FormatTable1 renders Table 1 in the paper's layout.
func FormatTable1(rows []Row1) string {
	var sb strings.Builder
	sb.WriteString("Table 1: Effect of register promotion on static counts of memory operations\n")
	fmt.Fprintf(&sb, "%-10s %28s %28s %10s\n", "benchmark", "static loads", "static stores", "total")
	fmt.Fprintf(&sb, "%-10s %8s %8s %10s %8s %8s %10s %10s\n",
		"", "before", "after", "(% impro)", "before", "after", "(% impro)", "(% impro)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %8d %8d %10.1f %8d %8d %10.1f %10.1f\n",
			r.Name, r.LoadsBefore, r.LoadsAfter, r.LoadImprovement(),
			r.StoresBefore, r.StoresAfter, r.StoreImprovement(), r.TotalImprovement())
	}
	return sb.String()
}

// FormatTable2 renders Table 2 in the paper's layout.
func FormatTable2(rows []Row2) string {
	var sb strings.Builder
	sb.WriteString("Table 2: Effect of register promotion on dynamic counts of memory operations\n")
	fmt.Fprintf(&sb, "%-10s %32s %32s %10s\n", "benchmark", "dynamic loads", "dynamic stores", "total")
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %10s %10s %10s %10s\n",
		"", "before", "after", "(% impro)", "before", "after", "(% impro)", "(% impro)")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %10d %10d %10.1f %10d %10d %10.1f %10.1f\n",
			r.Name, r.LoadsBefore, r.LoadsAfter, r.LoadImprovement(),
			r.StoresBefore, r.StoresAfter, r.StoreImprovement(), r.TotalImprovement())
	}
	fmt.Fprintf(&sb, "mean total improvement: %.1f%%\n", MeanTotalImprovement(rows))
	return sb.String()
}

// FormatTable3 renders Table 3 in the paper's layout.
func FormatTable3(rows []Row3) string {
	var sb strings.Builder
	sb.WriteString("Table 3: Effect of register promotion on register pressure\n")
	fmt.Fprintf(&sb, "%-10s %-16s %14s %14s %8s\n",
		"benchmark", "routine", "colors before", "colors after", "delta")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %-16s %14d %14d %+8d\n",
			r.Benchmark, r.Routine, r.ColorsBefore, r.ColorsAfter, r.ColorsAfter-r.ColorsBefore)
	}
	return sb.String()
}

// AblationRow compares the dynamic totals of two configurations on one
// workload.
type AblationRow struct {
	Name   string
	BaseA  int64 // dynamic mem ops under configuration A
	BaseB  int64 // dynamic mem ops under configuration B
	LabelA string
	LabelB string
}

// Ablation runs two configurations over the suite and reports dynamic
// memory operation totals side by side.
func Ablation(a, b Options, labelA, labelB string) ([]AblationRow, error) {
	var rows []AblationRow
	for _, w := range workload.Suite() {
		outA, err := pipeline.Run(w.Src, a.pipeline(false))
		if err != nil {
			return nil, fmt.Errorf("ablation %s (%s): %w", w.Name, labelA, err)
		}
		outB, err := pipeline.Run(w.Src, b.pipeline(false))
		if err != nil {
			return nil, fmt.Errorf("ablation %s (%s): %w", w.Name, labelB, err)
		}
		rows = append(rows, AblationRow{
			Name:   w.Name,
			BaseA:  outA.After.DynMemOps(),
			BaseB:  outB.After.DynMemOps(),
			LabelA: labelA,
			LabelB: labelB,
		})
	}
	return rows, nil
}

// FormatAblation renders an ablation comparison.
func FormatAblation(rows []AblationRow) string {
	if len(rows) == 0 {
		return "(no ablation rows)\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "Ablation: dynamic memory ops, %s vs %s\n", rows[0].LabelA, rows[0].LabelB)
	fmt.Fprintf(&sb, "%-10s %14s %14s\n", "benchmark", rows[0].LabelA, rows[0].LabelB)
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-10s %14d %14d\n", r.Name, r.BaseA, r.BaseB)
	}
	return sb.String()
}
