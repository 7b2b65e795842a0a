package server

import (
	"time"

	"repro/internal/irimport"
	"repro/internal/pipeline"
)

// The key ceilings take part in request canonicalization, and so in
// the content-addressed cache key. They are constants, not settings, so
// a router and every replica behind it derive the same key for the
// same request without sharing any configuration.
const (
	// maxSteps is the interpreter step ceiling. A request may ask for
	// fewer steps (max_steps), never more.
	maxSteps = 50_000_000
	// maxTimeout is the interpreter wall-clock ceiling. A request may
	// ask for less (timeout_ms), never more.
	maxTimeout = 10 * time.Second
	// defaultPipelineWorkers is the transform worker count of a request
	// that names none (workers omitted or 0).
	defaultPipelineWorkers = 1
)

// ResolveKey canonicalizes ro and returns the content-addressed cache
// key for (src, ro) — byte-for-byte the key a replica derives for the
// same request. Invalid options return the same typed error shape the
// replica's 400 carries, so a router can reject bad requests without
// spending a proxy hop.
func ResolveKey(src string, ro RequestOptions) (string, error) {
	res, err := canonicalize(ro)
	if err != nil {
		return "", err
	}
	return cacheKey(src, res), nil
}

// canonicalize defaults and clamps request options into their resolved
// form — the exact struct hashed into the cache key. It is pure
// (depends only on ro) so the router and every replica agree on it. Rejections are typed *pipeline.OptionError wrapped for 400
// mapping, naming the offending field.
func canonicalize(ro RequestOptions) (resolvedOptions, error) {
	var res resolvedOptions
	res.Lang = ro.Lang
	if res.Lang == "" {
		res.Lang = irimport.LangMiniC
	}
	if res.Lang != irimport.LangMiniC && res.Lang != irimport.LangIR {
		return res, &badRequestError{&pipeline.OptionError{Field: "Lang", Value: ro.Lang,
			Reason: `unknown input language (want "mc" or "ll")`}}
	}
	res.Algorithm = ro.Algorithm
	if res.Algorithm == "" {
		res.Algorithm = "ssa"
	}
	if _, err := pipeline.ParseAlgorithm(res.Algorithm); err != nil {
		return res, &badRequestError{&pipeline.OptionError{Field: "Algorithm", Value: ro.Algorithm,
			Reason: "unknown algorithm (want ssa, baseline, memopt, or none)"}}
	}
	res.Check = ro.Check
	if res.Check == "" {
		res.Check = "off"
	}
	if _, err := pipeline.ParseCheckLevel(res.Check); err != nil {
		return res, &badRequestError{&pipeline.OptionError{Field: "Check", Value: ro.Check,
			Reason: "unknown check level (want off, boundaries, or paranoid)"}}
	}
	res.Workers = ro.Workers
	if res.Workers == 0 {
		res.Workers = defaultPipelineWorkers
	}
	if res.Workers < 0 || res.Workers > 16 {
		return res, &badRequestError{&pipeline.OptionError{Field: "Workers", Value: ro.Workers,
			Reason: "out of range [0, 16] (0 = server default)"}}
	}
	if ro.MaxSteps < 0 {
		return res, &badRequestError{&pipeline.OptionError{Field: "Interp.MaxSteps", Value: ro.MaxSteps,
			Reason: "must be >= 0 (0 = server ceiling)"}}
	}
	if ro.TimeoutMS < 0 {
		return res, &badRequestError{&pipeline.OptionError{Field: "Interp.Timeout", Value: ro.TimeoutMS,
			Reason: "must be >= 0 (0 = server ceiling)"}}
	}
	if ro.PressureCap < 0 {
		return res, &badRequestError{&pipeline.OptionError{Field: "PressureCap", Value: ro.PressureCap,
			Reason: "must be >= 0 (0 = no pressure cap)"}}
	}
	res.MaxSteps = ro.MaxSteps
	if res.MaxSteps == 0 || res.MaxSteps > maxSteps {
		res.MaxSteps = maxSteps
	}
	maxMS := maxTimeout.Milliseconds()
	res.TimeoutMS = ro.TimeoutMS
	if res.TimeoutMS == 0 || res.TimeoutMS > maxMS {
		res.TimeoutMS = maxMS
	}
	res.StaticProfile = ro.StaticProfile
	res.PreMemOpts = ro.PreMemOpts
	res.PaperProfitFormula = ro.PaperProfitFormula
	res.WholeFunctionScope = ro.WholeFunctionScope
	res.PressureCap = ro.PressureCap
	res.SkipMeasurement = ro.SkipMeasurement
	return res, nil
}
