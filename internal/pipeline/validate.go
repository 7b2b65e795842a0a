package pipeline

import (
	"fmt"

	"repro/internal/irimport"
)

// OptionError reports one invalid Options field. Run validates its
// options up front and returns an *OptionError instead of silently
// clamping nonsense values, so callers that accept options from the
// outside world (the promotion service's request decoder, the CLIs'
// flag handlers) can distinguish "the request was malformed" from "the
// pipeline failed" and map the former to a 400-class response.
type OptionError struct {
	// Field is the Options field that was rejected (Go field name,
	// dotted for nested fields, e.g. "Interp.MaxSteps").
	Field string
	// Value is the rejected value.
	Value any
	// Reason says what a valid value looks like.
	Reason string
}

// Error renders "pipeline: invalid option Field=value: reason".
func (e *OptionError) Error() string {
	return fmt.Sprintf("pipeline: invalid option %s=%v: %s", e.Field, e.Value, e.Reason)
}

// ParseAlgorithm parses "ssa", "baseline", "memopt", or "none".
func ParseAlgorithm(s string) (Algorithm, error) {
	switch s {
	case "ssa":
		return AlgSSA, nil
	case "baseline":
		return AlgBaseline, nil
	case "memopt":
		return AlgMemOpt, nil
	case "none":
		return AlgNone, nil
	}
	return AlgSSA, fmt.Errorf("pipeline: unknown algorithm %q (want ssa, baseline, memopt, or none)", s)
}

// Validate checks that every Options field is in its documented range
// and returns a typed *OptionError for the first violation. Zero values
// are always valid (they select the documented defaults); what Validate
// rejects are values no code path gives a meaning to — a negative
// worker count, an Algorithm or CheckLevel outside the enum — which
// previously fell through to whatever the nearest clamp did.
func (o Options) Validate() error {
	switch o.Lang {
	case "", irimport.LangMiniC, irimport.LangIR:
	default:
		return &OptionError{Field: "Lang", Value: o.Lang,
			Reason: `unknown input language (want "mc" or "ll")`}
	}
	if o.Algorithm < AlgSSA || o.Algorithm > AlgNone {
		return &OptionError{Field: "Algorithm", Value: int(o.Algorithm),
			Reason: "unknown algorithm (want ssa, baseline, memopt, or none)"}
	}
	if o.Check < CheckOff || o.Check > CheckParanoid {
		return &OptionError{Field: "Check", Value: int(o.Check),
			Reason: "unknown check level (want off, boundaries, or paranoid)"}
	}
	if o.Workers < 0 {
		return &OptionError{Field: "Workers", Value: o.Workers,
			Reason: "must be >= 0 (0 = GOMAXPROCS)"}
	}
	if o.PressureCap < 0 {
		return &OptionError{Field: "PressureCap", Value: o.PressureCap,
			Reason: "must be >= 0 (0 = no pressure cap)"}
	}
	if o.Interp.MaxSteps < 0 {
		return &OptionError{Field: "Interp.MaxSteps", Value: o.Interp.MaxSteps,
			Reason: "must be >= 0 (0 = default)"}
	}
	if o.Interp.MaxDepth < 0 {
		return &OptionError{Field: "Interp.MaxDepth", Value: o.Interp.MaxDepth,
			Reason: "must be >= 0 (0 = default)"}
	}
	if o.Interp.MaxOutput < 0 {
		return &OptionError{Field: "Interp.MaxOutput", Value: o.Interp.MaxOutput,
			Reason: "must be >= 0 (0 = default)"}
	}
	if o.Interp.Timeout < 0 {
		return &OptionError{Field: "Interp.Timeout", Value: o.Interp.Timeout,
			Reason: "must be >= 0 (0 = no limit)"}
	}
	return nil
}
