package router

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/histo"
)

// routerMetrics is the router's own Prometheus surface: cluster-level
// counters plus per-replica labeled series, rendered by /metrics. The
// per-replica request/error/hedge counters live on the replica structs
// (they are updated on the serving path); this struct holds the
// aggregates.
type routerMetrics struct {
	requests       atomic.Int64 // front-door requests admitted for processing
	ok             atomic.Int64 // 2xx responses proxied back
	upstreamNon2xx atomic.Int64 // non-2xx replica responses proxied back verbatim
	badRequests    atomic.Int64 // router-side 4xx (parse/validate failures)
	quotaLimited   atomic.Int64 // 429s from the per-tenant quota
	noReplica      atomic.Int64 // 503s with zero healthy replicas
	gatewayErrors  atomic.Int64 // 502s after exhausting every replica attempt
	drained        atomic.Int64 // 503s while draining

	hedges    atomic.Int64 // hedge attempts fired
	hedgeWins atomic.Int64 // requests won by the hedge attempt
	failovers atomic.Int64 // transparent retries after a transport failure
	spills    atomic.Int64 // bounded-load overflows off a key's primary
	demotions atomic.Int64 // in-band replica demotions (probe demotions excluded)
	ringChurn atomic.Int64 // ring rebuilds since start (health transitions)
	probes    atomic.Int64 // health-probe rounds completed

	latency *histo.Histogram // proxied-attempt latency (replica side of the wire)
	e2e     *histo.Histogram // front-door end-to-end latency
}

func newRouterMetrics() routerMetrics {
	return routerMetrics{
		latency: histo.New(nil),
		e2e:     histo.New(nil),
	}
}

// writeMetrics renders the Prometheus text exposition.
func (rt *Router) writeMetrics(w io.Writer) {
	m := &rt.m
	metric := func(name, help, typ string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n%s %d\n", name, help, name, typ, name, v)
	}
	counter := func(name, help string, v int64) { metric(name, help, "counter", v) }
	gauge := func(name, help string, v int64) { metric(name, help, "gauge", v) }

	counter("rprouter_requests_total", "front-door promotion requests admitted", m.requests.Load())
	counter("rprouter_responses_ok_total", "2xx responses proxied back", m.ok.Load())
	counter("rprouter_responses_upstream_non2xx_total", "replica non-2xx responses proxied back verbatim", m.upstreamNon2xx.Load())
	counter("rprouter_bad_requests_total", "router-side request rejections", m.badRequests.Load())
	counter("rprouter_quota_limited_total", "requests rejected by the per-tenant quota", m.quotaLimited.Load())
	counter("rprouter_no_replica_total", "requests rejected with zero healthy replicas", m.noReplica.Load())
	counter("rprouter_gateway_errors_total", "requests that exhausted every replica attempt", m.gatewayErrors.Load())
	counter("rprouter_drained_total", "requests rejected while draining", m.drained.Load())
	counter("rprouter_hedges_total", "hedge attempts fired", m.hedges.Load())
	counter("rprouter_hedge_wins_total", "requests won by the hedge attempt", m.hedgeWins.Load())
	counter("rprouter_failovers_total", "transparent failovers after replica transport failures", m.failovers.Load())
	counter("rprouter_spills_total", "bounded-load spills off a key's primary replica", m.spills.Load())
	counter("rprouter_demotions_total", "in-band replica demotions on transport failure", m.demotions.Load())
	counter("rprouter_probe_rounds_total", "health-probe rounds completed", m.probes.Load())

	gauge("rprouter_ring_churn", "ring rebuilds since start (replica health transitions)", m.ringChurn.Load())
	gauge("rprouter_replicas_healthy", "replicas currently in the ring", int64(rt.healthyCount()))
	gauge("rprouter_replicas_configured", "replicas configured", int64(len(rt.replicas)))
	gauge("rprouter_inflight_total", "proxied attempts currently in flight", int64(rt.totalInflight()))
	gauge("rprouter_hedge_delay_us", "current hedge delay in microseconds (0 = hedging off)", rt.hedgeDelayNS.Load()/int64(time.Microsecond))
	gauge("rprouter_quota_tenants", "tenants with a live quota bucket", int64(rt.quotas.Len()))
	draining := int64(0)
	if rt.gate.Draining() {
		draining = 1
	}
	gauge("rprouter_draining", "1 while the router is draining", draining)
	gauge("rprouter_uptime_seconds", "seconds since the router started", int64(time.Since(rt.start).Seconds()))

	// Per-replica counters, one labeled series per replica.
	perReplica := func(name, help string, get func(*replica) int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, rep := range rt.replicas {
			fmt.Fprintf(w, "%s{replica=%q} %d\n", name, rep.name, get(rep))
		}
	}
	perReplica("rprouter_replica_requests_total", "proxied attempts per replica (hedges included)",
		func(r *replica) int64 { return r.requests.Load() })
	perReplica("rprouter_replica_errors_total", "transport-level attempt failures per replica",
		func(r *replica) int64 { return r.errors.Load() })
	perReplica("rprouter_replica_hedges_total", "hedge attempts fired at each replica",
		func(r *replica) int64 { return r.hedges.Load() })
	perReplica("rprouter_replica_spills_total", "bounded-load spills absorbed by each replica",
		func(r *replica) int64 { return r.spillsIn.Load() })

	fmt.Fprintf(w, "# HELP rprouter_replica_healthy 1 while the replica is in the ring\n# TYPE rprouter_replica_healthy gauge\n")
	for _, rep := range rt.replicas {
		up := int64(0)
		if rep.healthy.Load() {
			up = 1
		}
		fmt.Fprintf(w, "rprouter_replica_healthy{replica=%q} %d\n", rep.name, up)
	}
	fmt.Fprintf(w, "# HELP rprouter_replica_inflight proxied attempts in flight per replica\n# TYPE rprouter_replica_inflight gauge\n")
	for _, rep := range rt.replicas {
		fmt.Fprintf(w, "rprouter_replica_inflight{replica=%q} %d\n", rep.name, rep.inflight.Load())
	}

	// Latency histograms: the aggregate attempt latency, the end-to-end
	// front-door latency, and one per-replica series — the same fixed
	// buckets rpserved exposes, so dashboards line up.
	m.latency.Snapshot().WritePrometheus(w,
		"rprouter_attempt_seconds", "proxied replica attempt latency in seconds", "")
	m.e2e.Snapshot().WritePrometheus(w,
		"rprouter_request_seconds", "front-door end-to-end latency in seconds", "")
	for _, rep := range rt.replicas {
		rep.latency.Snapshot().WritePrometheus(w,
			"rprouter_replica_seconds", "per-replica attempt latency in seconds",
			fmt.Sprintf("replica=%q", rep.name))
	}
}
