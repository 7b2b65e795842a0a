package main

import (
	"fmt"
	"sort"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/source"
)

// observed is what a run of a program shows to the outside: its printed
// output, main's return value and the final image of every global, plus
// the dynamic singleton loads and stores it executed.
type observed struct {
	Output  []int64            `json:"output"`
	Return  int64              `json:"return"`
	Globals map[string][]int64 `json:"globals"`
	MemOps  int64              `json:"memops"`
}

func observe(r *interp.Result) observed {
	return observed{Output: r.Output, Return: r.ReturnValue, Globals: r.Globals, MemOps: r.DynMemOps()}
}

// observeOutcome decodes the observables of a served outcome.
func observeOutcome(o report.OutcomeJSON) (observed, error) {
	if o.DynAfter == nil || o.ReturnValue == nil {
		return observed{}, fmt.Errorf("outcome carries no measurement")
	}
	obs := observed{
		Output:  o.Output,
		Return:  *o.ReturnValue,
		Globals: make(map[string][]int64, len(o.Globals)),
		MemOps:  o.DynAfter.Loads + o.DynAfter.Stores,
	}
	for _, g := range o.Globals {
		obs.Globals[g.Name] = g.Values
	}
	return obs, nil
}

// referenceRun runs prog on the reference interpreter: the small
// map-based tree walker kept as the executable specification.
func referenceRun(prog *ir.Program) (observed, error) {
	r, err := interp.Run(prog, interp.Options{Legacy: true, MaxSteps: refMaxSteps})
	if err != nil {
		return observed{}, err
	}
	return observe(r), nil
}

// referenceBefore compiles p with its frontend alone (no normalization,
// no promotion) and runs it on the reference interpreter.
func referenceBefore(p program) (observed, error) {
	var prog *ir.Program
	var err error
	if p.Lang == irimport.LangIR {
		prog, err = irimport.Compile(p.Src)
	} else {
		prog, err = source.Compile(p.Src)
	}
	if err != nil {
		return observed{}, fmt.Errorf("compile: %w", err)
	}
	return referenceRun(prog)
}

// firstDiff reports the first observable difference between the
// reference run and a promoted run, or "" when they agree. Dynamic
// counts are not compared: removing them is the point of promotion.
func firstDiff(ref, got observed) string {
	if len(ref.Output) != len(got.Output) {
		return fmt.Sprintf("output length %d, reference %d", len(got.Output), len(ref.Output))
	}
	for i := range ref.Output {
		if ref.Output[i] != got.Output[i] {
			return fmt.Sprintf("output[%d] = %d, reference %d", i, got.Output[i], ref.Output[i])
		}
	}
	if ref.Return != got.Return {
		return fmt.Sprintf("return value %d, reference %d", got.Return, ref.Return)
	}
	names := make([]string, 0, len(ref.Globals))
	for name := range ref.Globals {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got.Globals) != len(ref.Globals) {
		return fmt.Sprintf("%d globals, reference %d", len(got.Globals), len(ref.Globals))
	}
	for _, name := range names {
		want, have := ref.Globals[name], got.Globals[name]
		if len(want) != len(have) {
			return fmt.Sprintf("global %s has %d cells, reference %d", name, len(have), len(want))
		}
		for i := range want {
			if want[i] != have[i] {
				return fmt.Sprintf("global %s[%d] = %d, reference %d", name, i, have[i], want[i])
			}
		}
	}
	return ""
}

// batchCheck is what a batch child reports about one program's promoted
// outcome, for the parent to hold against the reference.
type batchCheck struct {
	// After is the promoted program run on the reference interpreter.
	After observed `json:"after"`
	// Measured is the pipeline's own measure-after run, and MeasuredBefore
	// its measure-before dynamic count; both absent on SkipMeasurement.
	Measured       *observed `json:"measured,omitempty"`
	MeasuredBefore int64     `json:"measured_before,omitempty"`
}

func checkOutcome(out *pipeline.Outcome) (batchCheck, error) {
	after, err := referenceRun(out.Prog)
	if err != nil {
		return batchCheck{}, fmt.Errorf("reference run of the promoted program: %w", err)
	}
	c := batchCheck{After: after}
	if out.After != nil {
		m := observe(out.After)
		c.Measured = &m
		c.MeasuredBefore = out.Before.DynMemOps()
	}
	return c, nil
}

// judge holds one promoted outcome against the reference run of the
// unpromoted program and returns the first difference, or "".
func judge(ref observed, c batchCheck) string {
	if d := firstDiff(ref, c.After); d != "" {
		return "promoted program: " + d
	}
	if c.Measured != nil {
		if d := firstDiff(ref, *c.Measured); d != "" {
			return "measured outcome: " + d
		}
		if c.MeasuredBefore != ref.MemOps {
			return fmt.Sprintf("measured %d dynamic memory operations before promotion, reference %d", c.MeasuredBefore, ref.MemOps)
		}
		if c.Measured.MemOps != c.After.MemOps {
			return fmt.Sprintf("measured %d dynamic memory operations after promotion, reference %d", c.Measured.MemOps, c.After.MemOps)
		}
	}
	return ""
}
