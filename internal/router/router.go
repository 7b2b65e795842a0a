package router

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/histo"
	"repro/internal/server"
)

// Config holds the router's deployment settings.
type Config struct {
	// Replicas are the rpserved instances (host:port) behind the ring.
	Replicas []string
	// QuotaRPS is the per-tenant steady admission rate ahead of
	// placement (0 = no quotas). QuotaBurst is the bucket size
	// (0 = max(4, 2×QuotaRPS)).
	QuotaRPS   float64
	QuotaBurst int
}

// Router tuning. Every deployment runs these values.
const (
	// vnodes is the virtual-node count per replica on the ring.
	vnodes = 128
	// loadFactor is the bounded-load ceiling as a multiple of the
	// cluster-average in-flight count: a key spills off its primary
	// above it.
	loadFactor = 1.25
	// spillFloor is the minimum per-replica in-flight bound, so a
	// near-idle cluster never spills on its first burst.
	spillFloor = 4
	// hedgeMin and hedgeMax clamp the hedge delay, which each probe
	// round derives from the replicas' request-latency p95.
	hedgeMin = 2 * time.Millisecond
	hedgeMax = time.Second
	// probeInterval is the replica health-probe cadence and
	// probeTimeout bounds one probe (or metrics scrape) round trip.
	probeInterval = 250 * time.Millisecond
	probeTimeout  = time.Second
	// failThreshold consecutive failed probes take a replica out of the
	// ring; okThreshold consecutive ok probes bring it back.
	failThreshold = 2
	okThreshold   = 1
	// proxyTimeout bounds one proxied attempt.
	proxyTimeout = 60 * time.Second
)

// replica is one rpserved instance as the router sees it.
type replica struct {
	name string // host:port — the ring node name
	url  string // http://host:port

	healthy  atomic.Bool
	inflight atomic.Int64

	requests atomic.Int64 // proxied attempts (hedges included)
	errors   atomic.Int64 // transport-level attempt failures
	hedges   atomic.Int64 // hedge attempts fired at this replica
	spillsIn atomic.Int64 // requests absorbed as a bounded-load spill target
	latency  *histo.Histogram
	failNote atomic.Int64 // in-band failure reports since last probe (prober resets)
	failRuns int          // consecutive failed probes (prober goroutine only)
	okRuns   int          // consecutive ok probes (prober goroutine only)
}

// Router is the cluster front door.
type Router struct {
	replicas []*replica
	byName   map[string]*replica
	client   *http.Client

	// ringMu guards ring rebuilds; lookups load the value atomically.
	ringMu sync.Mutex
	ring   atomic.Pointer[Ring]

	quotas *frontdoor.Limiter // nil when QuotaRPS is 0

	hedgeDelayNS atomic.Int64 // current hedge delay; 0 (before the first probe round) = no hedging

	m routerMetrics

	start time.Time
	stop  chan struct{}
	once  sync.Once
	gate  frontdoor.Gate
}

// New builds a router over cfg.Replicas. Every replica starts healthy
// and the first probe cycle corrects that optimism; starting
// pessimistic would turn a router restart into a self-inflicted
// outage.
func New(cfg Config) (*Router, error) {
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		byName: make(map[string]*replica, len(cfg.Replicas)),
		client: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 64, IdleConnTimeout: 90 * time.Second},
			Timeout:   proxyTimeout,
		},
		quotas: frontdoor.NewLimiter(cfg.QuotaRPS, cfg.QuotaBurst),
		start:  time.Now(),
		stop:   make(chan struct{}),
		m:      newRouterMetrics(),
	}
	seen := map[string]bool{}
	for _, name := range cfg.Replicas {
		if seen[name] {
			continue
		}
		seen[name] = true
		rep := &replica{
			name:    name,
			url:     "http://" + name,
			latency: histo.New(nil),
		}
		rep.healthy.Store(true)
		rt.replicas = append(rt.replicas, rep)
		rt.byName[name] = rep
	}
	rt.rebuildRing()
	return rt, nil
}

// Start launches the health-probe loop. Stop (or Drain) ends it.
func (rt *Router) Start() {
	go rt.probeLoop()
}

// Stop terminates the probe loop without draining.
func (rt *Router) Stop() { rt.once.Do(func() { close(rt.stop) }) }

// Drain stops admission, ends probing, and waits for in-flight
// requests (or ctx).
func (rt *Router) Drain(ctx context.Context) error {
	rt.Stop()
	return rt.gate.Drain(ctx)
}

// rebuildRing recomputes the ring over the currently-healthy replica
// set and bumps the churn counter. Called by the prober on membership
// change and by in-band failure demotion.
func (rt *Router) rebuildRing() {
	rt.ringMu.Lock()
	defer rt.ringMu.Unlock()
	var healthy []string
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			healthy = append(healthy, rep.name)
		}
	}
	rt.ring.Store(NewRing(healthy, vnodes))
	rt.m.ringChurn.Add(1)
}

// healthyCount reports how many replicas are currently up.
func (rt *Router) healthyCount() int {
	n := 0
	for _, rep := range rt.replicas {
		if rep.healthy.Load() {
			n++
		}
	}
	return n
}

// totalInflight sums in-flight attempts across replicas.
func (rt *Router) totalInflight() int {
	n := int64(0)
	for _, rep := range rt.replicas {
		n += rep.inflight.Load()
	}
	return int(n)
}

// place picks the serving sequence for key: the healthy replicas in
// ring order, with the head adjusted by the bounded-load rule. The
// returned slice's first element is where the request goes; the rest
// are failover/hedge targets in preference order.
func (rt *Router) place(key string) (seq []*replica, spilled bool) {
	ring := rt.ring.Load()
	if ring == nil || ring.Len() == 0 {
		return nil, false
	}
	names := ring.Sequence(key, 0)
	reps := make([]*replica, 0, len(names))
	for _, n := range names {
		if rep := rt.byName[n]; rep != nil && rep.healthy.Load() {
			reps = append(reps, rep)
		}
	}
	if len(reps) == 0 {
		return nil, false
	}
	bound := LoadBound(loadFactor, rt.totalInflight()+1, len(reps), spillFloor)
	for i, rep := range reps {
		if int(rep.inflight.Load()) < bound {
			if i == 0 {
				return reps, false
			}
			// Rotate the under-bound replica to the front, keeping the
			// remaining ring order as the failover tail.
			out := make([]*replica, 0, len(reps))
			out = append(out, rep)
			for j, r := range reps {
				if j != i {
					out = append(out, r)
				}
			}
			rep.spillsIn.Add(1)
			rt.m.spills.Add(1)
			return out, true
		}
	}
	// Everything is at the bound: the primary absorbs the overflow and
	// its admission control pushes back with 429s.
	return reps, false
}

// noteFailure records an in-band transport failure against rep and
// demotes it immediately — between a replica dying and the next probe
// cycle noticing, no further request should be placed on it. The
// prober re-promotes it after okThreshold healthy probes.
func (rt *Router) noteFailure(rep *replica) {
	rep.errors.Add(1)
	rep.failNote.Add(1)
	if rep.healthy.CompareAndSwap(true, false) {
		rt.m.demotions.Add(1)
		rt.rebuildRing()
	}
}

// proxyResult is one completed proxy attempt.
type proxyResult struct {
	rep     *replica
	status  int
	header  http.Header
	body    []byte
	err     error
	latency time.Duration
	hedged  bool // this attempt was the hedge, not the primary
}

// proxyOnce forwards one attempt to rep and reads the full response.
// client is the caller's frontdoor.ClientKey and tenant its X-Tenant
// header, if any.
func (rt *Router) proxyOnce(ctx context.Context, rep *replica, body []byte, client, tenant string, hedged bool) proxyResult {
	rep.inflight.Add(1)
	defer rep.inflight.Add(-1)
	rep.requests.Add(1)

	res := proxyResult{rep: rep, hedged: hedged}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, rep.url+"/v1/promote", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	req.Header.Set("Content-Type", "application/json")
	// Name the client on every attempt, so per-client rate limiting on
	// the replica keys on the real client — never on the router's own
	// address, which every proxied request shares.
	req.Header.Set("X-Client-ID", client)
	if tenant != "" {
		req.Header.Set("X-Tenant", tenant)
	}
	t0 := time.Now()
	resp, err := rt.client.Do(req)
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	res.body, err = io.ReadAll(resp.Body)
	res.latency = time.Since(t0)
	if err != nil {
		res.err = err
		return res
	}
	res.status = resp.StatusCode
	res.header = resp.Header
	rep.latency.Observe(res.latency)
	rt.m.latency.Observe(res.latency)
	return res
}

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/promote", rt.handlePromote)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/readyz", rt.handleReadyz)
	mux.HandleFunc("/metrics", rt.handleMetrics)
	mux.HandleFunc("/v1/cluster", rt.handleCluster)
	return mux
}

// handlePromote is the front-door serving path: quota → key → placement
// → proxy with hedging and transparent failover.
func (rt *Router) handlePromote(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer func() { rt.m.e2e.Observe(time.Since(start)) }()

	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST", "bad_request")
		return
	}
	if !rt.gate.Enter() {
		rt.m.drained.Add(1)
		writeError(w, http.StatusServiceUnavailable, "router is draining", "draining")
		return
	}
	defer rt.gate.Exit()
	rt.m.requests.Add(1)

	// Per-tenant quota ahead of everything: a tenant over its budget
	// costs the cluster one token-bucket check, nothing more.
	if ok, retry := rt.quotas.Allow(tenantKey(r), time.Now()); !ok {
		rt.m.quotaLimited.Add(1)
		w.Header().Set("Retry-After", frontdoor.RetryAfter(retry))
		writeError(w, http.StatusTooManyRequests, "per-tenant quota exceeded", "rate_limited")
		return
	}

	preq, body, rej := server.DecodePromote(r)
	if rej != nil {
		rt.m.badRequests.Add(1)
		frontdoor.WriteJSON(w, rej.Status, rej.Body)
		return
	}
	// The router computes the same content-addressed key the replica
	// will: that is the whole sharding contract. Invalid options die
	// here with the replica's exact 400 shape, saving the hop.
	key, err := server.ResolveKey(preq.Source, preq.Options)
	if err != nil {
		rt.m.badRequests.Add(1)
		writeError(w, http.StatusBadRequest, err.Error(), "bad_request")
		return
	}

	seq, _ := rt.place(key)
	if len(seq) == 0 {
		rt.m.noReplica.Add(1)
		writeError(w, http.StatusServiceUnavailable, "no healthy replicas", "no_replica")
		return
	}

	res, ok := rt.dispatch(r, seq, body)
	if !ok {
		if err := r.Context().Err(); err != nil {
			// The client went away; no replica failed. Answer the way a
			// replica answers a canceled wait.
			rt.m.badRequests.Add(1)
			writeError(w, http.StatusRequestTimeout, "canceled while proxying: "+err.Error(), "timeout")
			return
		}
		rt.m.gatewayErrors.Add(1)
		writeError(w, http.StatusBadGateway,
			"every replica attempt failed: "+res.err.Error(), "upstream_down")
		return
	}
	if res.hedged {
		rt.m.hedgeWins.Add(1)
	}
	if res.status >= 200 && res.status < 300 {
		rt.m.ok.Add(1)
	} else {
		rt.m.upstreamNon2xx.Add(1)
	}
	if ct := res.header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := res.header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set("X-RP-Replica", res.rep.name)
	if res.hedged {
		w.Header().Set("X-RP-Hedged", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// dispatch runs the primary attempt against seq[0] with tail-latency
// hedging and transport-failure failover down the rest of the
// sequence. It returns the winning result, or (lastResult, false) when
// every attempt failed at the transport level.
//
// The loser of a hedge race is canceled via context; its replica
// counters were already charged, which is the honest accounting — the
// replica did spend the work.
func (rt *Router) dispatch(r *http.Request, seq []*replica, body []byte) (proxyResult, bool) {
	ctx, cancel := context.WithCancel(r.Context())
	defer cancel()

	results := make(chan proxyResult, len(seq)+1)
	client, tenant := frontdoor.ClientKey(r), r.Header.Get("X-Tenant")
	launch := func(rep *replica, hedged bool) {
		go func() { results <- rt.proxyOnce(ctx, rep, body, client, tenant, hedged) }()
	}

	next := 1 // index into seq of the next untried replica
	outstanding := 1
	launch(seq[0], false)

	// The hedge timer fires at most once per request; a fired hedge is
	// just another outstanding attempt afterwards.
	var hedgeCh <-chan time.Time
	if d := time.Duration(rt.hedgeDelayNS.Load()); d > 0 && len(seq) > 1 {
		timer := time.NewTimer(d)
		defer timer.Stop()
		hedgeCh = timer.C
	}

	var last proxyResult
	for {
		select {
		case res := <-results:
			outstanding--
			if res.err == nil {
				return res, true
			}
			last = res
			if ctx.Err() != nil {
				// The client went away (or a winner already canceled
				// us); don't demote replicas for our own cancellation.
				if outstanding == 0 {
					return last, false
				}
				continue
			}
			rt.noteFailure(res.rep)
			if next < len(seq) {
				rt.m.failovers.Add(1)
				launch(seq[next], res.hedged)
				next++
				outstanding++
			} else if outstanding == 0 {
				return last, false
			}
		case <-hedgeCh:
			hedgeCh = nil
			if next < len(seq) {
				rep := seq[next]
				next++
				rep.hedges.Add(1)
				rt.m.hedges.Add(1)
				launch(rep, true)
				outstanding++
			}
		case <-r.Context().Done():
			// Client disconnected: nothing left to serve. In-flight
			// attempts die with the shared context.
			return proxyResult{err: r.Context().Err()}, false
		}
	}
}

// tenantKey identifies the quota bucket for a request: the X-Tenant
// header when a fronting gateway set one, else the per-client identity
// the replicas also use.
func tenantKey(r *http.Request) string {
	if t := r.Header.Get("X-Tenant"); t != "" {
		return t
	}
	return frontdoor.ClientKey(r)
}

// handleHealthz: 200 while the router process is serving, 503 while
// draining.
func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	code := http.StatusOK
	status := "ok"
	if rt.gate.Draining() {
		code, status = http.StatusServiceUnavailable, "draining"
	}
	frontdoor.WriteJSON(w, code, map[string]any{
		"status":   status,
		"uptime_s": int64(time.Since(rt.start).Seconds()),
	})
}

// handleReadyz: ready iff at least one replica is healthy and the
// router is not draining — the signal an upstream balancer needs.
func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	switch {
	case rt.gate.Draining():
		frontdoor.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not_ready", "reason": "draining"})
	case rt.healthyCount() == 0:
		frontdoor.WriteJSON(w, http.StatusServiceUnavailable, map[string]any{"status": "not_ready", "reason": "no healthy replicas"})
	default:
		frontdoor.WriteJSON(w, http.StatusOK, map[string]any{"status": "ready"})
	}
}

// handleCluster reports per-replica state as JSON — the harness's and
// an operator's view of ring membership, health, and load.
func (rt *Router) handleCluster(w http.ResponseWriter, r *http.Request) {
	type repView struct {
		Name     string  `json:"name"`
		Healthy  bool    `json:"healthy"`
		Inflight int64   `json:"inflight"`
		Requests int64   `json:"requests"`
		Errors   int64   `json:"errors"`
		Hedges   int64   `json:"hedges"`
		SpillsIn int64   `json:"spills_in"`
		P95MS    float64 `json:"p95_ms"`
	}
	views := make([]repView, 0, len(rt.replicas))
	for _, rep := range rt.replicas {
		views = append(views, repView{
			Name:     rep.name,
			Healthy:  rep.healthy.Load(),
			Inflight: rep.inflight.Load(),
			Requests: rep.requests.Load(),
			Errors:   rep.errors.Load(),
			Hedges:   rep.hedges.Load(),
			SpillsIn: rep.spillsIn.Load(),
			P95MS:    rep.latency.Snapshot().Quantile(0.95) * 1000,
		})
	}
	frontdoor.WriteJSON(w, http.StatusOK, map[string]any{
		"replicas":       views,
		"healthy":        rt.healthyCount(),
		"ring_churn":     rt.m.ringChurn.Load(),
		"hedge_delay_ms": float64(rt.hedgeDelayNS.Load()) / 1e6,
	})
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.writeMetrics(w)
}

func writeError(w http.ResponseWriter, code int, msg, kind string) {
	frontdoor.WriteJSON(w, code, server.ErrorResponse{Error: msg, Kind: kind})
}
