package server

import (
	"time"

	"repro/internal/irimport"
	"repro/internal/pipeline"
)

// KeyCeilings are the server configuration values that participate in
// request canonicalization — and therefore in the content-addressed
// cache key. A router fronting a fleet of replicas must compute keys
// with the same ceilings the replicas run with, or identical requests
// would hash to different keys on the two sides and consistent-hash
// placement would stop aligning with replica cache contents.
type KeyCeilings struct {
	// MaxSteps is the interpreter step ceiling (0 = 50 million, the
	// server default).
	MaxSteps int64
	// MaxTimeout is the interpreter wall-clock ceiling (0 = 10s).
	MaxTimeout time.Duration
	// PipelineWorkers is the default per-request transform worker count
	// (0 = 1).
	PipelineWorkers int
}

// withDefaults mirrors Config.withDefaults for the key-relevant subset.
func (c KeyCeilings) withDefaults() KeyCeilings {
	if c.MaxSteps <= 0 {
		c.MaxSteps = 50_000_000
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = 10 * time.Second
	}
	if c.PipelineWorkers <= 0 {
		c.PipelineWorkers = 1
	}
	return c
}

// ResolveKey canonicalizes ro against the ceilings and returns the
// content-addressed cache key for (src, ro) — byte-for-byte the key a
// replica running with matching ceilings derives for the same request.
// Invalid options return the same typed error shape the replica's 400
// carries, so a router can reject bad requests without spending a
// proxy hop.
func ResolveKey(src string, ro RequestOptions, ceil KeyCeilings) (string, error) {
	res, err := canonicalize(ro, ceil.withDefaults())
	if err != nil {
		return "", err
	}
	return cacheKey(src, res), nil
}

// canonicalize defaults and clamps request options into their resolved
// form — the exact struct hashed into the cache key. It is pure
// (depends only on ro and ceil) so the router and every replica agree
// on it. Rejections are typed *pipeline.OptionError wrapped for 400
// mapping, naming the offending field.
func canonicalize(ro RequestOptions, ceil KeyCeilings) (resolvedOptions, error) {
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
		res.Workers = ceil.PipelineWorkers
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
	if res.MaxSteps == 0 || res.MaxSteps > ceil.MaxSteps {
		res.MaxSteps = ceil.MaxSteps
	}
	maxMS := ceil.MaxTimeout.Milliseconds()
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
	res.Fault = ro.Fault
	return res, nil
}
