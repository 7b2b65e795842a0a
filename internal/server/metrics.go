package server

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/histo"
	"repro/internal/pipeline"
)

// metrics holds the server's counters. Everything is an atomic or a
// mutex-guarded map of atomics, updated inline on the request path and
// rendered as Prometheus text by the /metrics handler. Instances are
// per-Server (no global expvar registration), so tests can run many
// servers in one process.
type metrics struct {
	requests     atomic.Int64 // POST /v1/promote requests accepted for processing
	ok           atomic.Int64 // 200 responses
	clientErrors atomic.Int64 // 4xx responses other than rejections
	serverErrors atomic.Int64 // 5xx responses
	timeouts     atomic.Int64 // 408 responses (interp step/wall-clock bound hit)
	rejected     atomic.Int64 // 429 responses (queue full)
	drained      atomic.Int64 // 503 responses while draining

	rateLimited atomic.Int64 // 429 responses (per-client token bucket exhausted)

	cacheHits       atomic.Int64
	cacheMisses     atomic.Int64
	cacheEvictions  atomic.Int64
	collapsed       atomic.Int64 // requests served a singleflight leader's bytes
	diskHits        atomic.Int64 // outcomes served from the on-disk cold tier
	diskCorrupt     atomic.Int64 // disk entries that failed verification (quarantined)
	diskReadErrors  atomic.Int64 // disk reads that failed for non-corruption reasons
	diskWriteErrors atomic.Int64 // disk writes that failed
	diskQueued      atomic.Int64 // outcomes queued for the disk writer or being written

	queuedTotal   atomic.Int64 // requests that had to wait for a worker slot
	queueWaitNS   atomic.Int64 // summed queue wait
	pipelineNS    atomic.Int64 // summed pipeline wall time (cache misses only)
	degradedFuncs atomic.Int64 // functions degraded across all runs

	// stageWallNS aggregates per-stage pipeline wall time. Stages are
	// known up front, so the map is built once and only its values
	// mutate.
	stageWallNS map[string]*atomic.Int64

	// reqSeconds is the end-to-end /v1/promote latency distribution —
	// every request, every status. pipeSeconds is the pipeline-run
	// distribution (cache misses only). Both use the shared fixed
	// bucket layout, so a fronting router can scrape them, merge across
	// replicas, and derive its hedging delay from the served p95
	// instead of a hardcoded guess.
	reqSeconds  *histo.Histogram
	pipeSeconds *histo.Histogram

	mu sync.Mutex // serializes /metrics rendering only
}

func newMetrics() *metrics {
	m := &metrics{
		stageWallNS: make(map[string]*atomic.Int64, len(pipeline.Stages())),
		reqSeconds:  histo.New(nil),
		pipeSeconds: histo.New(nil),
	}
	for _, s := range pipeline.Stages() {
		m.stageWallNS[s] = new(atomic.Int64)
	}
	return m
}

// recordStages folds one outcome's stage timings into the aggregate.
func (m *metrics) recordStages(timings []pipeline.StageTiming) {
	for _, t := range timings {
		if c, ok := m.stageWallNS[t.Stage]; ok {
			c.Add(int64(t.Wall))
		}
	}
}

// writePrometheus renders every counter in Prometheus text exposition
// format, plus the gauges the server snapshots at render time.
func (m *metrics) writePrometheus(w io.Writer, s *Server) {
	m.mu.Lock()
	defer m.mu.Unlock()

	metric := func(name, help, typ string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		fmt.Fprintf(w, "%s %d\n", name, v)
	}
	counter := func(name, help string, v int64) { metric(name, help, "counter", v) }
	gauge := func(name, help string, v int64) { metric(name, help, "gauge", v) }

	counter("rpserved_requests_total", "promotion requests accepted for processing", m.requests.Load())
	counter("rpserved_responses_ok_total", "successful promotion responses", m.ok.Load())
	counter("rpserved_responses_client_error_total", "4xx responses other than backpressure rejections", m.clientErrors.Load())
	counter("rpserved_responses_server_error_total", "5xx responses", m.serverErrors.Load())
	counter("rpserved_responses_timeout_total", "requests that hit the interpreter step or wall-clock bound", m.timeouts.Load())
	counter("rpserved_rejected_total", "requests rejected because the admission queue was full", m.rejected.Load())
	counter("rpserved_rate_limited_total", "requests rejected by the per-client rate limiter", m.rateLimited.Load())
	counter("rpserved_drained_total", "requests rejected because the server was draining", m.drained.Load())
	counter("rpserved_cache_hits_total", "promotion results served from the in-memory cache tier", m.cacheHits.Load())
	counter("rpserved_cache_misses_total", "promotion requests that ran the pipeline", m.cacheMisses.Load())
	counter("rpserved_cache_evictions_total", "cache entries evicted by the LRU bound", m.cacheEvictions.Load())
	counter("rpserved_collapsed_total", "requests served a singleflight leader's result", m.collapsed.Load())
	counter("rpserved_disk_hits_total", "promotion results served from the on-disk cache tier", m.diskHits.Load())
	counter("rpserved_disk_corrupt_total", "disk cache entries that failed verification and were quarantined", m.diskCorrupt.Load())
	counter("rpserved_disk_read_errors_total", "disk cache reads that failed (corruption excluded)", m.diskReadErrors.Load())
	counter("rpserved_disk_write_errors_total", "disk cache writes that failed", m.diskWriteErrors.Load())
	counter("rpserved_queued_total", "requests that waited for a worker slot", m.queuedTotal.Load())
	counter("rpserved_queue_wait_ms_total", "summed queue wait in milliseconds", m.queueWaitNS.Load()/int64(time.Millisecond))
	counter("rpserved_pipeline_ms_total", "summed pipeline wall time in milliseconds (cache misses only)", m.pipelineNS.Load()/int64(time.Millisecond))
	counter("rpserved_degraded_funcs_total", "functions compiled without promotion after an absorbed stage failure", m.degradedFuncs.Load())

	gauge("rpserved_inflight_workers", "requests currently holding a worker slot", int64(s.adm.inUse()))
	gauge("rpserved_queue_depth", "requests currently waiting for a worker slot", int64(s.adm.waiting()))
	gauge("rpserved_cache_entries", "entries in the in-memory result cache tier", int64(s.cache.Len()))
	gauge("rpserved_cache_bytes", "approximate payload bytes held by the in-memory cache tier", int64(s.cache.Bytes()))
	if s.disk != nil {
		st := s.disk.Stats()
		gauge("rpserved_disk_entries", "entries in the on-disk cache tier", int64(st.Entries))
		gauge("rpserved_disk_bytes", "bytes held by the on-disk cache tier", st.Bytes)
		gauge("rpserved_disk_quarantine_bytes", "bytes held by quarantined disk entries", st.QuarantineBytes)
		gauge("rpserved_disk_quarantined", "disk entries quarantined since start", st.Quarantined)
		gauge("rpserved_disk_gc_evicted", "disk entries evicted by GC since start", st.Evicted)
		gauge("rpserved_disk_write_queue", "outcomes queued for the disk writer or being written", m.diskQueued.Load())
	}
	gauge("rpserved_rate_limit_clients", "clients with a live rate-limit bucket", int64(s.limiter.Len()))
	draining := int64(0)
	if s.gate.Draining() {
		draining = 1
	}
	gauge("rpserved_draining", "1 while the server is draining", draining)
	ready := int64(1)
	if s.gate.Draining() || s.adm.saturated() {
		ready = 0
	}
	gauge("rpserved_ready", "1 while the server would answer /readyz with 200", ready)
	gauge("rpserved_uptime_seconds", "seconds since the server was created", int64(time.Since(s.start).Seconds()))

	// Per-stage pipeline wall time, one labeled series per stage, in
	// canonical stage order (stages that never ran render as 0).
	fmt.Fprintf(w, "# HELP rpserved_stage_wall_ms_total summed pipeline stage wall time in milliseconds\n")
	fmt.Fprintf(w, "# TYPE rpserved_stage_wall_ms_total counter\n")
	for _, stage := range pipeline.Stages() {
		fmt.Fprintf(w, "rpserved_stage_wall_ms_total{stage=%q} %d\n",
			stage, m.stageWallNS[stage].Load()/int64(time.Millisecond))
	}

	// Latency histograms: end-to-end request latency (all statuses) and
	// pipeline-run latency (misses only), fixed shared buckets. The
	// router scrapes rpserved_request_seconds to derive its hedging
	// delay from the replicas' actual p95.
	m.reqSeconds.Snapshot().WritePrometheus(w,
		"rpserved_request_seconds", "end-to-end /v1/promote latency in seconds", "")
	m.pipeSeconds.Snapshot().WritePrometheus(w,
		"rpserved_pipeline_seconds", "pipeline execution latency in seconds (cache misses only)", "")
}
