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

// Config sizes the router. Replicas is required; everything else has a
// sane zero-value default.
type Config struct {
	// Replicas are the rpserved instances (host:port) behind the ring.
	Replicas []string
	// VNodes is the virtual-node count per replica (0 = 128).
	VNodes int
	// LoadFactor is the bounded-load ceiling as a multiple of the
	// cluster-average in-flight count (0 = 1.25; values < 1 clamp to 1).
	LoadFactor float64
	// SpillFloor is the minimum per-replica in-flight bound, so a
	// near-idle cluster never spills on its first burst (0 = 4).
	SpillFloor int
	// HedgeDelay is how long the primary attempt may run before a
	// hedge fires at the key's next ring replica. 0 derives the delay
	// from the replicas' scraped request-latency p95 each probe cycle;
	// negative disables hedging.
	HedgeDelay time.Duration
	// HedgeMin/HedgeMax clamp the derived delay (0 = 2ms / 1s).
	HedgeMin, HedgeMax time.Duration
	// QuotaRPS is the per-tenant steady admission rate ahead of
	// placement (0 = no quotas). QuotaBurst is the bucket size
	// (0 = max(4, 2×QuotaRPS)).
	QuotaRPS   float64
	QuotaBurst int
	// ProbeInterval is the replica health-probe cadence (0 = 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (0 = 1s).
	ProbeTimeout time.Duration
	// FailThreshold is how many consecutive probe failures mark a
	// replica down (0 = 2); OkThreshold how many successes bring it
	// back (0 = 1).
	FailThreshold, OkThreshold int
	// MaxSourceBytes bounds the request body (0 = 1 MiB) — mirrors the
	// replica bound so oversized requests die at the door.
	MaxSourceBytes int64
	// Ceilings must match the replicas' key-relevant configuration so
	// router-side cache keys equal replica-side ones.
	Ceilings server.KeyCeilings
	// Transport overrides the proxy/probe transport (tests inject
	// fault-wrapped transports here; nil = a pooled http.Transport).
	Transport http.RoundTripper
	// ProxyTimeout bounds one proxied attempt (0 = 60s).
	ProxyTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.VNodes <= 0 {
		c.VNodes = 128
	}
	if c.LoadFactor == 0 {
		c.LoadFactor = 1.25
	}
	if c.SpillFloor <= 0 {
		c.SpillFloor = 4
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 2 * time.Millisecond
	}
	if c.HedgeMax <= 0 {
		c.HedgeMax = time.Second
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 250 * time.Millisecond
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = time.Second
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = 2
	}
	if c.OkThreshold <= 0 {
		c.OkThreshold = 1
	}
	if c.MaxSourceBytes <= 0 {
		c.MaxSourceBytes = 1 << 20
	}
	if c.ProxyTimeout <= 0 {
		c.ProxyTimeout = 60 * time.Second
	}
	if c.Transport == nil {
		c.Transport = &http.Transport{
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}
	// c.Ceilings stays as configured; server.ResolveKey applies the
	// replica defaults to its zero values.
	return c
}

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
	cfg      Config
	replicas []*replica
	byName   map[string]*replica
	client   *http.Client

	// ringMu guards ring rebuilds; lookups load the value atomically.
	ringMu sync.Mutex
	ring   atomic.Pointer[Ring]

	quotas *frontdoor.Limiter // nil when QuotaRPS is 0

	hedgeDelayNS atomic.Int64 // current hedge delay (derived or fixed)

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
	cfg = cfg.withDefaults()
	if len(cfg.Replicas) == 0 {
		return nil, fmt.Errorf("router: no replicas configured")
	}
	rt := &Router{
		cfg:    cfg,
		byName: make(map[string]*replica, len(cfg.Replicas)),
		client: &http.Client{Transport: cfg.Transport, Timeout: cfg.ProxyTimeout},
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
	if cfg.HedgeDelay > 0 {
		rt.hedgeDelayNS.Store(int64(cfg.HedgeDelay))
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
	rt.ring.Store(NewRing(healthy, rt.cfg.VNodes))
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
	bound := LoadBound(rt.cfg.LoadFactor, rt.totalInflight()+1, len(reps), rt.cfg.SpillFloor)
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

// hedgeDelay returns the current hedge delay, or 0 when hedging is off.
func (rt *Router) hedgeDelay() time.Duration {
	if rt.cfg.HedgeDelay < 0 {
		return 0
	}
	return time.Duration(rt.hedgeDelayNS.Load())
}

// noteFailure records an in-band transport failure against rep and
// demotes it immediately — between a replica dying and the next probe
// cycle noticing, no further request should be placed on it. The
// prober re-promotes it after OkThreshold healthy probes.
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
func (rt *Router) proxyOnce(ctx context.Context, rep *replica, body []byte, hdr http.Header, hedged bool) proxyResult {
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
	// Forward the client identity so per-client rate limiting on the
	// replica keys on the real tenant, not on the router's address.
	for _, h := range []string{"X-Client-ID", "X-Tenant"} {
		if v := hdr.Get(h); v != "" {
			req.Header.Set(h, v)
		}
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

	preq, body, rej := server.DecodePromote(r, rt.cfg.MaxSourceBytes)
	if rej != nil {
		rt.m.badRequests.Add(1)
		frontdoor.WriteJSON(w, rej.Status, rej.Body)
		return
	}
	// The router computes the same content-addressed key the replica
	// will: that is the whole sharding contract. Invalid options die
	// here with the replica's exact 400 shape, saving the hop.
	key, err := server.ResolveKey(preq.Source, preq.Options, rt.cfg.Ceilings)
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
	launch := func(rep *replica, hedged bool) {
		go func() { results <- rt.proxyOnce(ctx, rep, body, r.Header, hedged) }()
	}

	next := 1 // index into seq of the next untried replica
	outstanding := 1
	launch(seq[0], false)

	// The hedge timer fires at most once per request; a fired hedge is
	// just another outstanding attempt afterwards.
	var hedgeCh <-chan time.Time
	if d := rt.hedgeDelay(); d > 0 && len(seq) > 1 {
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
