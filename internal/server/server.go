// Package server is the long-running promotion service: it accepts
// mini-C programs plus pipeline options over HTTP/JSON, runs them
// through the register promotion pipeline on a bounded worker pool, and
// fronts the pipeline with a content-addressed result cache.
//
// The serving core is five layers, in admission order:
//
//   - Per-client rate limiting: a token bucket per client (X-Client-ID
//     header, else remote host) ahead of everything else, so one
//     misbehaving client collects 429s with jittered Retry-After hints
//     while every other client's latency holds.
//   - Content-addressed caching, two tiers: SHA-256 of (canonicalized
//     source, resolved options) keys a size-bounded in-memory LRU (hot
//     tier) over a durable on-disk store (internal/diskcache, cold
//     tier). The pipeline is deterministic for identical inputs, which
//     is what makes serving a cached outcome sound; the disk tier's
//     checksum-verify-or-quarantine contract is what makes serving one
//     after a crash or corruption sound. A restarted
//     replica re-opens its cache directory and comes back warm. Disk
//     writes happen behind the response, on one writer goroutine fed
//     by a bounded queue; Drain flushes it, and a crash loses only
//     queued outcomes, which a later miss recomputes byte for byte.
//   - Singleflight collapsing: concurrent identical misses share one
//     pipeline execution — the leader runs, waiters get the leader's
//     bytes (or its error; a leader can never wedge its waiters). Hot
//     keys cost one worker slot, not one per request.
//   - Admission control: a fixed pool of worker slots plus a bounded
//     waiting queue. A request beyond both bounds gets an immediate 429
//     with Retry-After — explicit backpressure, never unbounded memory.
//   - Isolation and bounds: pipeline stages already run behind panic
//     isolation (StageError); the server adds per-request interpreter
//     step and wall-clock ceilings so one hostile program cannot stall
//     a worker slot forever, and maps resource exhaustion to 408,
//     malformed requests (typed pipeline.OptionError, parse failures)
//     to 400 carrying the offending field name, and internal stage
//     failures to 500 with the structured StageError in the body.
//
// Endpoints: POST /v1/promote, GET /healthz, GET /readyz, GET /metrics
// (Prometheus text). Drain stops admission, waits for in-flight
// requests, and flips /healthz and /readyz to 503 so load balancers
// rotate the instance out; /readyz additionally reports not-ready while
// the admission queue is saturated, the early signal to shed load
// upstream.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/diskcache"
	"repro/internal/faults"
	"repro/internal/frontdoor"
	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/report"
)

// Config holds the server's deployment settings. The zero value is a
// memory-only server without rate limiting.
type Config struct {
	// QueueDepth is how many requests may wait for a worker slot beyond
	// the ones running (0 = 2× the worker count, negative = no waiting).
	QueueDepth int
	// CacheDir, when non-empty, adds the durable on-disk cold tier under
	// this directory: computed outcomes are written behind the response
	// by one writer goroutine (Drain flushes its queue), memory-tier
	// misses check it before running the pipeline, and a restarted
	// server re-opens it warm.
	CacheDir string
	// RateLimit is the per-client steady admission rate in requests per
	// second, applied ahead of the admission queue (0 = no limiting).
	RateLimit float64
	// RateBurst is the per-client token-bucket burst size
	// (0 = max(4, 2×RateLimit)).
	RateBurst int
	// DiskChaos, when non-nil, injects deterministic disk faults into
	// the cold tier (chaos drills only).
	DiskChaos *faults.DiskInjector

	// workers and memoryEntries replace the worker count (GOMAXPROCS)
	// and the memory tier's capacity (memoryTierEntries) when positive.
	// Only in-package tests set them.
	workers       int
	memoryEntries int
}

// Server sizing. Every deployment runs these values.
const (
	// maxSourceBytes bounds a /v1/promote body, at the replica and at
	// the router alike.
	maxSourceBytes = 1 << 20
	// memoryTierEntries is the in-memory LRU's capacity in entries.
	memoryTierEntries = 1024
	// diskTierBytes is the disk tier's byte budget. GC evicts
	// least-recently-used entries in the background above it.
	diskTierBytes = 256 << 20
)

// diskQueueLen bounds the write-behind queue between the handlers and
// the disk writer. A full queue blocks the handler that sends, so a
// disk slower than the arrival rate pushes back on clients instead of
// dropping outcomes or growing memory. 64 outcomes of a few KiB each
// ride out a disk stall of tens of milliseconds at a few hundred
// misses per second (one Put takes about a millisecond, so a single
// writer keeps up with several hundred a second), and a kill -9 can
// lose no more than the queue holds.
const diskQueueLen = 64

// diskWrite is one outcome queued for the disk writer.
type diskWrite struct {
	key   string
	entry cachedOutcome
}

// Server is one promotion service instance.
type Server struct {
	cache   *lruCache
	disk    *diskcache.Store // nil when CacheDir is empty
	flights *flightGroup

	// diskQ feeds the disk writer goroutine and diskDone is closed when
	// it exits; both are nil when disk is nil. Drain closes diskQ once,
	// after the last request that could send on it has left the gate.
	diskQ      chan diskWrite
	diskDone   chan struct{}
	closeDiskQ sync.Once

	limiter *frontdoor.Limiter // nil when RateLimit is 0
	adm     *admission
	m       *metrics
	start   time.Time
	gate    frontdoor.Gate

	// beforeRun, when non-nil, runs while the request holds its worker
	// slot, just before the pipeline. It is the in-package test seam:
	// tests keep slots busy with it and inject stage faults through
	// popts.Faults. Nothing outside tests sets it.
	beforeRun func(popts *pipeline.Options)
}

// New builds a server from cfg. It fails only when the configured cache
// directory cannot be opened — every other degraded dependency is a
// runtime counter, but a server that silently lost its durability tier
// would violate the warm-restart contract.
func New(cfg Config) (*Server, error) {
	if cfg.workers <= 0 {
		cfg.workers = runtime.GOMAXPROCS(0)
	}
	if cfg.memoryEntries <= 0 {
		cfg.memoryEntries = memoryTierEntries
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = 2 * cfg.workers
	}
	s := &Server{
		cache:   newLRUCache(cfg.memoryEntries),
		flights: newFlightGroup(),
		limiter: frontdoor.NewLimiter(cfg.RateLimit, cfg.RateBurst),
		adm:     newAdmission(cfg.workers, cfg.QueueDepth),
		m:       newMetrics(),
		start:   time.Now(),
	}
	if cfg.CacheDir != "" {
		disk, err := diskcache.Open(cfg.CacheDir, diskTierBytes, cfg.DiskChaos)
		if err != nil {
			return nil, err
		}
		s.disk = disk
		s.diskQ = make(chan diskWrite, diskQueueLen)
		s.diskDone = make(chan struct{})
		go s.writeBehind()
	}
	return s, nil
}

// Handler returns the server's HTTP handler.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/promote", s.timedPromote)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	return mux
}

// Drain stops admitting new requests, waits for every in-flight
// request to finish, and then waits for the disk writer to store every
// queued outcome — all bounded by ctx. After Drain, /healthz and
// /v1/promote answer 503; the caller is expected to stop the listener
// and exit.
func (s *Server) Drain(ctx context.Context) error {
	if err := s.gate.Drain(ctx); err != nil {
		return err
	}
	if s.diskQ == nil {
		return nil
	}
	s.closeDiskQ.Do(func() { close(s.diskQ) })
	select {
	case <-s.diskDone:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("drain: disk writes: %w", ctx.Err())
	}
}

// PromoteRequest is the JSON body of POST /v1/promote.
type PromoteRequest struct {
	// Source is the mini-C program text.
	Source string `json:"source"`
	// Options tunes the pipeline run for this request.
	Options RequestOptions `json:"options"`
}

// RequestOptions is the request-level view of pipeline.Options: the
// per-request configuration is a cheap, cacheable input — part of the
// cache key — never a server rebuild.
type RequestOptions struct {
	// Lang is the source language of the request program: "mc"
	// (default) for native mini-C, "ll" for the textual-IR dialect
	// internal/irimport accepts.
	Lang string `json:"lang,omitempty"`
	// Algorithm is ssa (default), baseline, memopt, or none.
	Algorithm string `json:"algorithm,omitempty"`
	// Check is off (default), boundaries, or paranoid.
	Check string `json:"check,omitempty"`
	// StaticProfile promotes with the loop-depth estimator instead of a
	// training run.
	StaticProfile bool `json:"static_profile,omitempty"`
	// PreMemOpts runs the memory-SSA scalar optimizations before
	// promotion.
	PreMemOpts bool `json:"pre_mem_opts,omitempty"`
	// PaperProfitFormula uses the paper's exact printed profit formula.
	PaperProfitFormula bool `json:"paper_profit_formula,omitempty"`
	// WholeFunctionScope promotes at whole-function scope.
	WholeFunctionScope bool `json:"whole_function_scope,omitempty"`
	// PressureCap, when positive, promotes under a hard register-
	// pressure cap (see pipeline.Options.PressureCap).
	PressureCap int `json:"pressure_cap,omitempty"`
	// SkipMeasurement skips the before/after interpreter runs.
	SkipMeasurement bool `json:"skip_measurement,omitempty"`
	// MaxSteps caps interpreter steps for this request; clamped to the
	// 50-million ceiling (0 = ceiling).
	MaxSteps int64 `json:"max_steps,omitempty"`
	// TimeoutMS caps interpreter wall-clock time for this request in
	// milliseconds; clamped to the 10 s ceiling (0 = ceiling).
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// resolvedOptions is the canonicalized form of RequestOptions after
// defaulting and clamping — the exact value hashed into the cache key,
// so every spelling of the same effective configuration shares a cache
// entry.
type resolvedOptions struct {
	Lang               string `json:"lang"`
	Algorithm          string `json:"algorithm"`
	Check              string `json:"check"`
	StaticProfile      bool   `json:"static_profile"`
	PreMemOpts         bool   `json:"pre_mem_opts"`
	PaperProfitFormula bool   `json:"paper_profit_formula"`
	WholeFunctionScope bool   `json:"whole_function_scope"`
	PressureCap        int    `json:"pressure_cap"`
	SkipMeasurement    bool   `json:"skip_measurement"`
	MaxSteps           int64  `json:"max_steps"`
	TimeoutMS          int64  `json:"timeout_ms"`
}

// resolve canonicalizes the request options and converts them to
// pipeline options. Invalid values come back as a *badRequestError.
// The canonicalization itself lives in canonicalize (keys.go), shared
// with the router's ResolveKey so both sides derive identical cache
// keys.
func resolve(ro RequestOptions) (resolvedOptions, pipeline.Options, error) {
	var popts pipeline.Options
	res, err := canonicalize(ro)
	if err != nil {
		return res, popts, err
	}
	// canonicalize already validated both enums; re-parsing cannot fail.
	alg, _ := pipeline.ParseAlgorithm(res.Algorithm)
	check, _ := pipeline.ParseCheckLevel(res.Check)

	popts = pipeline.Options{
		Lang:               res.Lang,
		Algorithm:          alg,
		Check:              check,
		StaticProfile:      res.StaticProfile,
		PreMemOpts:         res.PreMemOpts,
		PaperProfitFormula: res.PaperProfitFormula,
		WholeFunctionScope: res.WholeFunctionScope,
		PressureCap:        res.PressureCap,
		SkipMeasurement:    res.SkipMeasurement,
		Interp: interp.Options{
			MaxSteps: res.MaxSteps,
			Timeout:  time.Duration(res.TimeoutMS) * time.Millisecond,
		},
	}
	if err := popts.Validate(); err != nil {
		return res, popts, &badRequestError{err}
	}
	return res, popts, nil
}

// badRequestError wraps validation failures so the handler can map them
// to 400 while keeping the underlying typed error (pipeline.OptionError
// etc.) inspectable.
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// ServingMeta is the per-request serving metadata attached to every
// promotion response. Unlike the outcome, it legitimately differs
// between identical requests (cache state, queue wait, timings).
type ServingMeta struct {
	SchemaVersion int `json:"schema_version"`
	// Cache says how the outcome was produced: "hit" (memory tier),
	// "disk" (cold tier, promoted to memory), "collapsed" (another
	// request's in-flight computation, singleflight), or "miss" (this
	// request ran the pipeline).
	Cache       string           `json:"cache"`
	QueueWaitMS float64          `json:"queue_wait_ms"`
	PipelineMS  float64          `json:"pipeline_ms"` // 0 unless this request ran the pipeline
	Stages      []report.StageMS `json:"stages,omitempty"`
}

// Rejection is a request refused at the door, before any work: the
// HTTP status and the error body to answer with.
type Rejection struct {
	Status int
	Body   ErrorResponse
}

// DecodePromote reads, size-limits (1 MiB) and decodes a /v1/promote
// body, returning the raw bytes too so a router can forward them
// unchanged. Replica and router both admit requests through it, so both
// reject a malformed body with the same status and error body.
func DecodePromote(r *http.Request) (PromoteRequest, []byte, *Rejection) {
	var req PromoteRequest
	reject := func(status int, msg string) (PromoteRequest, []byte, *Rejection) {
		return req, nil, &Rejection{status, ErrorResponse{Error: msg, Kind: "bad_request"}}
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxSourceBytes+1))
	if err != nil {
		return reject(http.StatusBadRequest, "reading body: "+err.Error())
	}
	if len(body) > maxSourceBytes {
		return reject(http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds %d bytes", maxSourceBytes))
	}
	if err := json.Unmarshal(body, &req); err != nil {
		return reject(http.StatusBadRequest, "decoding request: "+err.Error())
	}
	if req.Source == "" {
		return reject(http.StatusBadRequest, "empty source")
	}
	return req, body, nil
}

// PromoteResponse is the JSON body of a successful promotion.
type PromoteResponse struct {
	// Outcome is the stable, versioned outcome encoding — identical for
	// identical (source, options).
	Outcome json.RawMessage `json:"outcome"`
	// Report is the pipeline's canonical text report.
	Report string `json:"report"`
	// Serving is the per-request serving metadata.
	Serving ServingMeta `json:"serving"`
}

// ErrorResponse is the JSON body of every non-200 response.
type ErrorResponse struct {
	Error string `json:"error"`
	// Kind classifies the failure: bad_request, rate_limited,
	// queue_full, draining, timeout, or stage_error.
	Kind string `json:"kind"`
	// Field names the rejected Options field for kind=bad_request when
	// the failure was a typed option validation error.
	Field string `json:"field,omitempty"`
	// Stage and Func identify the failing pipeline stage for
	// kind=stage_error / kind=timeout.
	Stage string `json:"stage,omitempty"`
	Func  string `json:"func,omitempty"`
}

// timedPromote wraps handlePromote with the request-latency histogram:
// every /v1/promote request — hit, miss, rejection, failure — lands one
// observation, because the p95 a fronting router derives from this
// histogram has to describe what clients actually experienced, not just
// the happy path.
func (s *Server) timedPromote(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.handlePromote(w, r)
	s.m.reqSeconds.Observe(time.Since(start))
}

// handlePromote serves POST /v1/promote.
func (s *Server) handlePromote(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		frontdoor.WriteJSON(w, http.StatusMethodNotAllowed, ErrorResponse{
			Error: "use POST", Kind: "bad_request"})
		return
	}
	if !s.gate.Enter() {
		s.m.drained.Add(1)
		frontdoor.WriteJSON(w, http.StatusServiceUnavailable, ErrorResponse{
			Error: "server is draining", Kind: "draining"})
		return
	}
	defer s.gate.Exit()

	// Rate limiting comes first: a limited client should not even cost
	// the server a body read, let alone a cache lookup.
	if ok, retry := s.limiter.Allow(frontdoor.ClientKey(r), time.Now()); !ok {
		s.m.rateLimited.Add(1)
		w.Header().Set("Retry-After", frontdoor.RetryAfter(retry))
		frontdoor.WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: "per-client rate limit exceeded", Kind: "rate_limited"})
		return
	}

	req, _, rej := DecodePromote(r)
	if rej != nil {
		s.m.clientErrors.Add(1)
		frontdoor.WriteJSON(w, rej.Status, rej.Body)
		return
	}
	resolved, popts, err := resolve(req.Options)
	if err != nil {
		s.m.clientErrors.Add(1)
		resp := ErrorResponse{Error: err.Error(), Kind: "bad_request"}
		var oe *pipeline.OptionError
		if errors.As(err, &oe) {
			resp.Field = oe.Field
		}
		frontdoor.WriteJSON(w, http.StatusBadRequest, resp)
		return
	}
	s.m.requests.Add(1)
	s.lookup(w, r, cacheKey(req.Source, resolved), req.Source, popts)
}

// lookup answers key from the first tier that has it — memory, then
// disk, then another request's in-flight computation — and otherwise
// leads a new flight that computes it. Every tier before compute runs
// without a worker slot, so a hot cache keeps absorbing traffic even
// when the pool is saturated.
func (s *Server) lookup(w http.ResponseWriter, r *http.Request, key, src string, popts pipeline.Options) {
	for attempt := 0; ; attempt++ {
		if entry, ok := s.memoryGet(key); ok {
			s.serve(w, entry, ServingMeta{Cache: "hit"})
			return
		}
		if entry, ok := s.diskGet(key); ok {
			s.serve(w, entry, ServingMeta{Cache: "disk"})
			return
		}
		f, leader := s.flights.join(key)
		if leader {
			s.lead(w, r, key, f, src, popts)
			return
		}
		if !s.await(w, r, f, attempt) {
			return
		}
	}
}

// memoryGet consults the hot tier.
func (s *Server) memoryGet(key string) (cachedOutcome, bool) {
	entry, ok := s.cache.Get(key)
	if ok {
		s.m.cacheHits.Add(1)
	}
	return entry, ok
}

// await waits — holding no worker slot — for the leader of f to
// publish, and answers with the leader's bytes or its error. It
// returns true, having written nothing, when the caller should look
// the key up again: a leader canceled by its own client (a hedge loser
// the router gave up on, a disconnect) says nothing about this
// request, so a live caller re-runs the flight (often becoming the new
// leader) instead of inheriting a stranger's cancellation.
func (s *Server) await(w http.ResponseWriter, r *http.Request, f *flight, attempt int) (retry bool) {
	select {
	case <-f.done:
		if f.err == nil {
			s.m.collapsed.Add(1)
			s.serve(w, f.entry, ServingMeta{Cache: "collapsed"})
			return false
		}
		if attempt < 3 && isCanceled(f.err) && r.Context().Err() == nil {
			return true
		}
		s.writeFlightError(w, f.err)
	case <-r.Context().Done():
		s.m.clientErrors.Add(1)
		frontdoor.WriteJSON(w, http.StatusRequestTimeout, ErrorResponse{
			Error: "canceled while waiting for shared result: " + r.Context().Err().Error(), Kind: "timeout"})
	}
	return false
}

// lead computes key as the leader of flight f. A computed outcome goes
// into the memory tier before the flight releases its waiters, so a
// request arriving after the release finds it there instead of running
// the pipeline again; the disk write is queued after the release, so a
// full write queue never delays the waiters. A rejection or failure
// propagates to the waiters too: if the system is too loaded to run
// this key once, it is too loaded to run it at all.
func (s *Server) lead(w http.ResponseWriter, r *http.Request, key string, f *flight, src string, popts pipeline.Options) {
	// Whatever happens below — even a panic unwinding this handler —
	// the flight must be completed exactly once, or waiters would hang
	// forever.
	published := false
	defer func() {
		if !published {
			s.flights.complete(key, f, cachedOutcome{}, errLeaderAborted)
		}
	}()
	entry, meta, err := s.compute(r.Context(), src, popts)
	if err == nil {
		s.m.cacheEvictions.Add(int64(s.cache.Put(key, entry)))
	}
	published = true
	s.flights.complete(key, f, entry, err)
	if err != nil {
		s.writeFlightError(w, err)
		return
	}

	s.diskPut(key, entry)
	s.m.cacheMisses.Add(1)
	meta.Cache = "miss"
	s.serve(w, entry, meta)
}

// compute is the one admitted step: take a worker slot (or be rejected
// with backpressure), run the pipeline, and encode the outcome. The
// returned meta carries everything but the cache state.
func (s *Server) compute(ctx context.Context, src string, popts pipeline.Options) (cachedOutcome, ServingMeta, error) {
	waitStart := time.Now()
	release, queued, err := s.adm.acquire(ctx)
	if err != nil {
		return cachedOutcome{}, ServingMeta{}, err
	}
	defer release()
	queueWait := time.Since(waitStart)
	if queued {
		s.m.queuedTotal.Add(1)
		s.m.queueWaitNS.Add(int64(queueWait))
	}

	if s.beforeRun != nil {
		s.beforeRun(&popts)
	}

	pipeStart := time.Now()
	out, err := pipeline.Run(src, popts)
	pipeWall := time.Since(pipeStart)
	if err != nil {
		return cachedOutcome{}, ServingMeta{}, err
	}
	s.m.pipelineNS.Add(int64(pipeWall))
	s.m.pipeSeconds.Observe(pipeWall)
	s.m.recordStages(out.Timings)
	s.m.degradedFuncs.Add(int64(len(out.Degraded)))

	outcomeJSON, err := json.Marshal(report.EncodeOutcome(out))
	if err != nil {
		return cachedOutcome{}, ServingMeta{}, fmt.Errorf("encoding outcome: %w", err)
	}
	return cachedOutcome{outcome: outcomeJSON, report: out.Report()}, ServingMeta{
		QueueWaitMS: float64(queueWait.Microseconds()) / 1000,
		PipelineMS:  float64(pipeWall.Microseconds()) / 1000,
		Stages:      report.StageTimingsMS(report.SumStageTimings(out)),
	}, nil
}

// serve writes a 200 carrying entry.
func (s *Server) serve(w http.ResponseWriter, entry cachedOutcome, meta ServingMeta) {
	s.m.ok.Add(1)
	meta.SchemaVersion = report.SchemaVersion
	frontdoor.WriteJSON(w, http.StatusOK, PromoteResponse{
		Outcome: json.RawMessage(entry.outcome),
		Report:  entry.report,
		Serving: meta,
	})
}

// diskGet consults the cold tier; a hit is promoted into the memory
// tier. Every failure — absence, corruption (already quarantined by the
// store), injected or real IO errors — degrades to a miss; the counters
// keep score.
func (s *Server) diskGet(key string) (cachedOutcome, bool) {
	if s.disk == nil {
		return cachedOutcome{}, false
	}
	payload, err := s.disk.Get(key)
	if err != nil {
		switch {
		case errors.Is(err, diskcache.ErrNotFound):
		case errors.Is(err, diskcache.ErrCorrupt):
			s.m.diskCorrupt.Add(1)
		default:
			s.m.diskReadErrors.Add(1)
		}
		return cachedOutcome{}, false
	}
	entry, err := unmarshalOutcome(payload)
	if err != nil {
		s.m.diskCorrupt.Add(1)
		return cachedOutcome{}, false
	}
	s.m.diskHits.Add(1)
	s.m.cacheEvictions.Add(int64(s.cache.Put(key, entry)))
	return entry, true
}

// diskPut queues an outcome for the disk writer, blocking only while
// the queue is full. The response does not wait for the write: an
// outcome is a pure function of its key, so one that has not reached
// disk yet costs a recompute, never a wrong answer.
func (s *Server) diskPut(key string, entry cachedOutcome) {
	if s.disk == nil {
		return
	}
	s.m.diskQueued.Add(1)
	s.diskQ <- diskWrite{key, entry}
}

// writeBehind is the disk writer: it stores queued outcomes one at a
// time until Drain closes the queue. A failed write (injected or real)
// costs durability for that entry, never correctness.
func (s *Server) writeBehind() {
	defer close(s.diskDone)
	for w := range s.diskQ {
		if err := s.disk.Put(w.key, w.entry.marshal()); err != nil {
			s.m.diskWriteErrors.Add(1)
		}
		s.m.diskQueued.Add(-1)
	}
}

// writeFlightError maps an error shared through a flight — admission
// rejection, queued-context cancellation, or a pipeline failure — to
// its HTTP shape, for both the leader and every waiter.
func (s *Server) writeFlightError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrQueueFull):
		s.m.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		frontdoor.WriteJSON(w, http.StatusTooManyRequests, ErrorResponse{
			Error: "admission queue full", Kind: "queue_full"})
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		// The leader's client went away while queued; its waiters (if
		// any) see the same retryable shape.
		s.m.clientErrors.Add(1)
		frontdoor.WriteJSON(w, http.StatusRequestTimeout, ErrorResponse{
			Error: "canceled while queued: " + err.Error(), Kind: "timeout"})
	default:
		s.writeRunError(w, err)
	}
}

// writeRunError maps a pipeline failure to its HTTP shape: interpreter
// resource exhaustion to 408, everything else (stage panics included —
// the StageError machinery already absorbed them into structured form)
// to 500 with the StageError fields in the body.
func (s *Server) writeRunError(w http.ResponseWriter, err error) {
	resp := ErrorResponse{Error: err.Error(), Kind: "stage_error"}
	var se *pipeline.StageError
	if errors.As(err, &se) {
		resp.Stage = se.Stage
		resp.Func = se.Func
	}
	if errors.Is(err, interp.ErrTimeout) || errors.Is(err, interp.ErrStepLimit) {
		resp.Kind = "timeout"
		s.m.timeouts.Add(1)
		frontdoor.WriteJSON(w, http.StatusRequestTimeout, resp)
		return
	}
	s.m.serverErrors.Add(1)
	frontdoor.WriteJSON(w, http.StatusInternalServerError, resp)
}

// handleHealthz serves GET /healthz: 200 while serving, 503 while
// draining — the signal a load balancer needs to rotate the instance
// out before the listener closes.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.gate.Draining() {
		status = "draining"
		code = http.StatusServiceUnavailable
	}
	frontdoor.WriteJSON(w, code, map[string]any{
		"status":   status,
		"uptime_s": int64(time.Since(s.start).Seconds()),
	})
}

// handleReadyz serves GET /readyz: distinct from liveness, readiness
// says "send me traffic". Not-ready (503) while draining — and, unlike
// /healthz, while the admission queue is saturated, so an upstream
// balancer stops routing here before requests start bouncing off the
// 429 wall.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	reason := ""
	switch {
	case s.gate.Draining():
		reason = "draining"
	case s.adm.saturated():
		reason = "admission queue saturated"
	}
	if reason != "" {
		frontdoor.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{
			"status": "not_ready", "reason": reason,
		})
		return
	}
	frontdoor.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
}

// handleMetrics serves GET /metrics in Prometheus text format.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.m.writePrometheus(w, s)
}
