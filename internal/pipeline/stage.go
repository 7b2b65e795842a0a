package pipeline

import (
	"errors"
	"fmt"
	"runtime/debug"
	"time"
)

// CheckLevel selects how much self-checking the pipeline performs while
// transforming a program.
type CheckLevel int

const (
	// CheckOff performs only the final per-function CFG verification.
	CheckOff CheckLevel = iota
	// CheckBoundaries re-verifies the IR after every transformation
	// stage: full SSA dominance discipline while the function is in SSA
	// form, structural CFG invariants otherwise.
	CheckBoundaries
	// CheckParanoid adds a whole-program semantic differential check:
	// the baseline and transformed programs are interpreted on the same
	// input and must produce identical output, return value, and final
	// global memory.
	CheckParanoid
)

// String names the check level.
func (l CheckLevel) String() string {
	switch l {
	case CheckOff:
		return "off"
	case CheckBoundaries:
		return "boundaries"
	case CheckParanoid:
		return "paranoid"
	}
	return "?"
}

// ParseCheckLevel parses "off", "boundaries", or "paranoid".
func ParseCheckLevel(s string) (CheckLevel, error) {
	switch s {
	case "off":
		return CheckOff, nil
	case "boundaries":
		return CheckBoundaries, nil
	case "paranoid":
		return CheckParanoid, nil
	}
	return CheckOff, fmt.Errorf("pipeline: unknown check level %q (want off, boundaries, or paranoid)", s)
}

// Stage names. Per-function stages (normalize through verify) degrade
// the affected function on failure; whole-program stages fail the run.
const (
	StageCompile       = "compile"
	StageAlias         = "alias"
	StageNormalize     = "normalize"
	StageTrain         = "train"
	StageMeasureBefore = "measure-before"
	StageSSABuild      = "ssa-build"
	StageMemOpts       = "memopts"
	StagePromote       = "promote"
	StageDestruct      = "destruct"
	StageVerify        = "verify"
	StageMeasureAfter  = "measure-after"
	StageDifferential  = "differential"
)

// Stages returns every pipeline stage name in execution order. Fault
// injection tests iterate this list to prove each stage's isolation
// wrapper works.
func Stages() []string {
	return []string{
		StageCompile, StageAlias, StageNormalize, StageTrain,
		StageMeasureBefore, StageSSABuild, StageMemOpts, StagePromote,
		StageDestruct, StageVerify, StageMeasureAfter, StageDifferential,
	}
}

// StageError is the structured failure report of one pipeline stage. It
// is what the pipeline returns instead of letting a stage panic escape:
// the stage and function that failed, the recovered panic value (when
// the stage panicked rather than erred), the goroutine stack captured
// at the recovery point, and a printed IR snapshot of the function
// being transformed — everything needed to reproduce the failure.
type StageError struct {
	// Stage is the pipeline stage that failed (see Stages).
	Stage string
	// Func is the function being transformed, or "" for whole-program
	// stages.
	Func string
	// Recovered is the panic value when the stage panicked, else nil.
	Recovered any
	// Err is the underlying error (a wrapper around Recovered for
	// panics).
	Err error
	// Stack is the goroutine stack captured at the recovery point
	// (panics only).
	Stack string
	// IR is a printed snapshot of the IR at the moment of failure, for
	// repro; empty when no IR existed yet (e.g. compile errors).
	IR string
}

// Error renders a one-line structured message: stage, function, cause.
func (e *StageError) Error() string {
	site := e.Stage
	if e.Func != "" {
		site += " " + e.Func
	}
	if e.Recovered != nil {
		return fmt.Sprintf("pipeline: stage %s panicked: %v", site, e.Recovered)
	}
	return fmt.Sprintf("pipeline: stage %s: %v", site, e.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (e *StageError) Unwrap() error { return e.Err }

// Detail returns the full repro report: message, panic stack, and IR
// snapshot.
func (e *StageError) Detail() string {
	s := e.Error()
	if e.Stack != "" {
		s += "\n\nstack:\n" + e.Stack
	}
	if e.IR != "" {
		s += "\nIR at failure:\n" + e.IR
	}
	return s
}

// Degradation records one function the pipeline compiled without
// (or with partially rolled-back) promotion because a stage failed.
type Degradation struct {
	// Func is the degraded function.
	Func string
	// Stage is the stage whose failure triggered the fallback.
	Stage string
	// Err is the structured failure that was absorbed.
	Err *StageError
}

// String renders "func: stage failure".
func (d Degradation) String() string {
	return fmt.Sprintf("%s: %v", d.Func, d.Err)
}

// runStage executes body under panic isolation, firing any configured
// fault injector first (inside the isolation scope, so injected panics
// are recovered like real ones). Failures come back as *StageError;
// snap, when non-nil, lazily supplies the IR snapshot attached to them.
func (r *runner) runStage(stage, fn string, snap func() string, body func() error) (err error) {
	snapshot := func() string {
		if snap == nil {
			return ""
		}
		return snap()
	}
	start := time.Now()
	defer func() {
		r.out.Timings = append(r.out.Timings, StageTiming{Stage: stage, Func: fn, Wall: time.Since(start)})
	}()
	defer func() {
		if rec := recover(); rec != nil {
			err = &StageError{
				Stage:     stage,
				Func:      fn,
				Recovered: rec,
				Err:       fmt.Errorf("panic: %v", rec),
				Stack:     string(debug.Stack()),
				IR:        snapshot(),
			}
		}
	}()
	if ferr := r.opts.Faults.Fire(stage, fn); ferr != nil {
		return &StageError{Stage: stage, Func: fn, Err: ferr, IR: snapshot()}
	}
	if berr := body(); berr != nil {
		var se *StageError
		if errors.As(berr, &se) {
			return se
		}
		return &StageError{Stage: stage, Func: fn, Err: berr, IR: snapshot()}
	}
	return nil
}
