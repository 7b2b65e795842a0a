package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/histo"
	"repro/internal/server"
	"repro/internal/workload"
)

// fakeReplica is a scriptable stand-in for rpserved: it answers
// /v1/promote with a canned outcome (after an optional delay), tracks
// which keys it saw, and serves /readyz and /metrics.
type fakeReplica struct {
	ts    *httptest.Server
	delay time.Duration

	mu        sync.Mutex
	sources   []string
	clientIDs []string // X-Client-ID of each /v1/promote, in arrival order
	metrics   string   // /metrics body override
}

func newFakeReplica(t *testing.T, delay time.Duration) *fakeReplica {
	f := &fakeReplica{delay: delay}
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/promote", func(w http.ResponseWriter, r *http.Request) {
		var req server.PromoteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		f.mu.Lock()
		f.sources = append(f.sources, req.Source)
		f.clientIDs = append(f.clientIDs, r.Header.Get("X-Client-ID"))
		f.mu.Unlock()
		if f.delay > 0 {
			time.Sleep(f.delay)
		}
		w.Header().Set("Content-Type", "application/json")
		// Outcome must be a pure function of the source so cross-replica
		// identity checks pass: echo a digest of it.
		fmt.Fprintf(w, `{"outcome":{"src":%q},"report":"ok","serving":{"cache":"miss"}}`, req.Source)
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `{"status":"ready"}`)
	})
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		fmt.Fprint(w, f.metrics)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeReplica) host() string {
	u, _ := url.Parse(f.ts.URL)
	return u.Host
}

func (f *fakeReplica) seen() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.sources)
}

func (f *fakeReplica) clients() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return slices.Clone(f.clientIDs)
}

// newTestRouter builds an unstarted router: tests drive probeOnce by
// hand for determinism, so until they do the hedge delay is 0 and
// nothing hedges.
func newTestRouter(t *testing.T, cfg Config) *Router {
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Stop)
	return rt
}

func promoteBody(t *testing.T, src string) []byte {
	b, err := json.Marshal(server.PromoteRequest{Source: src})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func post(t *testing.T, h http.Handler, body []byte, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestRouterPlacementStable: every distinct source routes to exactly
// one replica, and repeats of the source land on that same replica —
// the property that keeps replica caches warm per key.
func TestRouterPlacementStable(t *testing.T) {
	a := newFakeReplica(t, 0)
	b := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{a.host(), b.host()}})
	h := rt.Handler()

	placed := make(map[string]string) // source → replica header
	for round := 0; round < 3; round++ {
		for i := 0; i < 16; i++ {
			src := fmt.Sprintf("int f%d() { return %d; }", i, i)
			rec := post(t, h, promoteBody(t, src), nil)
			if rec.Code != http.StatusOK {
				t.Fatalf("source %d: status %d: %s", i, rec.Code, rec.Body.String())
			}
			rep := rec.Header().Get("X-RP-Replica")
			if rep == "" {
				t.Fatal("missing X-RP-Replica header")
			}
			if prev, ok := placed[src]; ok && prev != rep {
				t.Fatalf("source %d moved %s → %s with no ring change", i, prev, rep)
			}
			placed[src] = rep
		}
	}
	if a.seen() == 0 || b.seen() == 0 {
		t.Fatalf("placement skew: replica a saw %d, b saw %d", a.seen(), b.seen())
	}
}

// TestRouterHedging: a slow primary's requests are rescued by a hedge
// to the key's next replica well before the primary finishes.
func TestRouterHedging(t *testing.T) {
	slow := newFakeReplica(t, 300*time.Millisecond)
	fast := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{slow.host(), fast.host()}})
	rt.hedgeDelayNS.Store(int64(10 * time.Millisecond))
	h := rt.Handler()

	sawHedgeWin := false
	for i := 0; i < 12; i++ {
		src := fmt.Sprintf("int g%d() { return %d; }", i, i)
		start := time.Now()
		rec := post(t, h, promoteBody(t, src), nil)
		elapsed := time.Since(start)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d: status %d", i, rec.Code)
		}
		if rec.Header().Get("X-RP-Hedged") == "1" {
			sawHedgeWin = true
			if elapsed > 200*time.Millisecond {
				t.Fatalf("hedged request took %v; hedge did not rescue it", elapsed)
			}
		}
	}
	if !sawHedgeWin {
		t.Fatal("no request was won by a hedge; keys never placed on the slow replica?")
	}
	if rt.m.hedges.Load() == 0 || rt.m.hedgeWins.Load() == 0 {
		t.Fatalf("hedge counters: fired=%d wins=%d, want both > 0",
			rt.m.hedges.Load(), rt.m.hedgeWins.Load())
	}
	// Primaries and hedges alike name the client (httptest's
	// RemoteAddr host), never the router.
	for _, id := range append(slow.clients(), fast.clients()...) {
		if id != "192.0.2.1" {
			t.Fatalf("attempt carried X-Client-ID %q, want 192.0.2.1", id)
		}
	}
}

// TestRouterForwardsClientKey: replicas rate-limit per client, and
// behind the router every connection comes from the router's address.
// So the router names the client on every attempt: two requests without
// an identity header, from different hosts, reach the replica under
// different X-Client-IDs, and an explicit X-Client-ID passes through.
func TestRouterForwardsClientKey(t *testing.T) {
	a := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{a.host()}})
	send := func(remote, clientID string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/promote",
			bytes.NewReader(promoteBody(t, "int f() { return 1; }")))
		req.RemoteAddr = remote
		if clientID != "" {
			req.Header.Set("X-Client-ID", clientID)
		}
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request from %s: status %d: %s", remote, rec.Code, rec.Body.String())
		}
	}
	send("10.0.0.1:5000", "")
	send("10.0.0.2:5000", "")
	send("10.0.0.3:5000", "tenant-7")
	want := []string{"10.0.0.1", "10.0.0.2", "tenant-7"}
	if got := a.clients(); !slices.Equal(got, want) {
		t.Fatalf("replica saw X-Client-ID %q, want %q", got, want)
	}
}

// TestRouterClientDisconnect: a client that gives up while its request
// is still at a replica gets the replica's own canceled-wait answer
// (408, kind timeout), counted as a router-side 4xx and not as a
// gateway error, and the replica — which did nothing wrong — stays in
// the ring.
func TestRouterClientDisconnect(t *testing.T) {
	slow := newFakeReplica(t, 300*time.Millisecond)
	rt := newTestRouter(t, Config{Replicas: []string{slow.host()}})

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	req := httptest.NewRequest(http.MethodPost, "/v1/promote",
		bytes.NewReader(promoteBody(t, "int f() { return 1; }"))).WithContext(ctx)
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, req)

	var fail server.ErrorResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil {
		t.Fatalf("decoding %d body: %v\n%s", rec.Code, err, rec.Body.String())
	}
	if rec.Code != http.StatusRequestTimeout || fail.Kind != "timeout" {
		t.Fatalf("disconnected client: %d kind=%q, want 408 timeout", rec.Code, fail.Kind)
	}
	if got := rt.m.gatewayErrors.Load(); got != 0 {
		t.Fatalf("gatewayErrors = %d, want 0", got)
	}
	if got := rt.m.badRequests.Load(); got != 1 {
		t.Fatalf("badRequests = %d, want 1", got)
	}
	if !rt.byName[slow.host()].healthy.Load() || rt.m.demotions.Load() != 0 {
		t.Fatal("replica demoted for the client's own disconnect")
	}
}

// TestRouterFailoverAndRecovery: a blacked-out replica's requests fail
// over transparently (clients see 200s), the replica is demoted from
// the ring at once, and probe cycles bring it back after recovery.
func TestRouterFailoverAndRecovery(t *testing.T) {
	a := newFakeReplica(t, 0)
	b := newFakeReplica(t, 0)
	blackout := faults.NewReplicaBlackout(nil)
	rt := newTestRouter(t, Config{Replicas: []string{a.host(), b.host()}})
	rt.client.Transport = blackout
	h := rt.Handler()

	// Warm assertion: both replicas serve.
	for i := 0; i < 8; i++ {
		if rec := post(t, h, promoteBody(t, fmt.Sprintf("int h%d() { return 1; }", i)), nil); rec.Code != http.StatusOK {
			t.Fatalf("warmup %d: status %d", i, rec.Code)
		}
	}

	churnBefore := rt.m.ringChurn.Load()
	blackout.Down(a.host())
	// Every request still succeeds — a's share fails over to b.
	for i := 0; i < 16; i++ {
		rec := post(t, h, promoteBody(t, fmt.Sprintf("int h%d() { return 1; }", i)), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d during blackout: status %d: %s", i, rec.Code, rec.Body.String())
		}
		if got := rec.Header().Get("X-RP-Replica"); got == a.host() && i > 0 {
			t.Fatalf("request %d placed on dead replica after demotion", i)
		}
	}
	if rt.m.failovers.Load() == 0 {
		t.Fatal("no failovers recorded during blackout")
	}
	if rt.byName[a.host()].healthy.Load() {
		t.Fatal("dead replica still marked healthy")
	}
	if rt.m.ringChurn.Load() == churnBefore {
		t.Fatal("ring churn did not advance on demotion")
	}

	// Recovery: restore the transport. The first probe round after
	// recovery drains the in-band failure notes accumulated during the
	// blackout (they count as one failed round); then okThreshold clean
	// rounds re-promote the replica and rebuild the ring.
	blackout.Up(a.host())
	rt.probeOnce()
	if rt.byName[a.host()].healthy.Load() {
		t.Fatal("replica promoted while its blackout failure notes were pending")
	}
	churnBefore = rt.m.ringChurn.Load()
	for i := 0; i < okThreshold; i++ {
		rt.probeOnce()
	}
	if !rt.byName[a.host()].healthy.Load() {
		t.Fatal("replica not re-promoted after okThreshold ok probes")
	}
	if rt.m.ringChurn.Load() == churnBefore {
		t.Fatal("ring not rebuilt on re-promotion")
	}
}

// TestRouterProbeDemotesUnready: a replica answering /readyz with 503
// leaves the ring after failThreshold (2) probe rounds without any
// client traffic being involved.
func TestRouterProbeDemotesUnready(t *testing.T) {
	a := newFakeReplica(t, 0)
	notReady := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "draining", http.StatusServiceUnavailable)
	}))
	defer notReady.Close()
	nu, _ := url.Parse(notReady.URL)

	rt := newTestRouter(t, Config{Replicas: []string{a.host(), nu.Host}})
	rt.probeOnce()
	if !rt.byName[nu.Host].healthy.Load() {
		t.Fatal("demoted after a single failed probe; failThreshold is 2")
	}
	rt.probeOnce()
	if rt.byName[nu.Host].healthy.Load() {
		t.Fatal("unready replica still in the ring after failThreshold probes")
	}
	ring := rt.ring.Load()
	if ring.Len() != 1 || ring.Lookup("any") != a.host() {
		t.Fatalf("ring = %v, want only the ready replica", ring.Nodes())
	}
}

// TestRouterQuota: a tenant beyond its bucket collects 429s with a
// Retry-After hint; a different tenant is unaffected.
func TestRouterQuota(t *testing.T) {
	a := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{
		Replicas:   []string{a.host()},
		QuotaRPS:   1,
		QuotaBurst: 2,
	})
	h := rt.Handler()

	body := promoteBody(t, "int q() { return 1; }")
	limited := 0
	for i := 0; i < 5; i++ {
		rec := post(t, h, body, map[string]string{"X-Tenant": "tenant-a"})
		if rec.Code == http.StatusTooManyRequests {
			limited++
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After hint")
			}
		}
	}
	if limited == 0 {
		t.Fatal("tenant-a was never quota-limited")
	}
	if rec := post(t, h, body, map[string]string{"X-Tenant": "tenant-b"}); rec.Code != http.StatusOK {
		t.Fatalf("tenant-b caught tenant-a's limit: status %d", rec.Code)
	}
	if rt.m.quotaLimited.Load() != int64(limited) {
		t.Fatalf("quotaLimited = %d, want %d", rt.m.quotaLimited.Load(), limited)
	}
}

// TestRouterBadRequestShortCircuits: invalid options are rejected at
// the router with the replica's 400 shape, costing zero proxy hops.
func TestRouterBadRequestShortCircuits(t *testing.T) {
	a := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{a.host()}})
	h := rt.Handler()

	body, _ := json.Marshal(server.PromoteRequest{
		Source:  "int f() { return 1; }",
		Options: server.RequestOptions{Algorithm: "turbo"},
	})
	rec := post(t, h, body, nil)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "Algorithm") {
		t.Fatalf("400 body does not name the field: %s", rec.Body.String())
	}
	if a.seen() != 0 {
		t.Fatalf("bad request reached a replica (%d hops)", a.seen())
	}
}

// TestRouterNoHealthyReplicas: with every replica out of the ring the
// router answers 503 and /readyz flips not-ready.
func TestRouterNoHealthyReplicas(t *testing.T) {
	a := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{a.host()}})
	rt.byName[a.host()].healthy.Store(false)
	rt.rebuildRing()
	h := rt.Handler()

	rec := post(t, h, promoteBody(t, "int f() { return 1; }"), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("promote status = %d, want 503", rec.Code)
	}
	req := httptest.NewRequest(http.MethodGet, "/readyz", nil)
	ready := httptest.NewRecorder()
	h.ServeHTTP(ready, req)
	if ready.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz status = %d, want 503", ready.Code)
	}
}

// TestRouterDrain: after Drain the front door answers 503 and in-flight
// work has completed.
func TestRouterDrain(t *testing.T) {
	a := newFakeReplica(t, 0)
	rt := newTestRouter(t, Config{Replicas: []string{a.host()}})
	h := rt.Handler()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := rt.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	rec := post(t, h, promoteBody(t, "int f() { return 1; }"), nil)
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status after drain = %d, want 503", rec.Code)
	}
}

// TestDerivedHedgeDelay: each probe round scrapes the replicas'
// request-latency histograms and sets the hedge delay to the merged
// p95, clamped to [hedgeMin, hedgeMax]; with under 20 samples the delay
// is hedgeMin.
func TestDerivedHedgeDelay(t *testing.T) {
	type sample struct {
		n int
		d time.Duration
	}
	cases := []struct {
		name    string
		samples []sample
		want    time.Duration
	}{
		// 95 samples in (1ms, 2.5ms], 5 in (50ms, 100ms]: p95 at the
		// 2.5ms bucket edge, inside the clamp.
		{"p95", []sample{{95, 2 * time.Millisecond}, {5, 80 * time.Millisecond}}, 2500 * time.Microsecond},
		{"below hedgeMin", []sample{{100, 100 * time.Microsecond}}, hedgeMin},
		{"above hedgeMax", []sample{{100, 5 * time.Second}}, hedgeMax},
		{"too few samples", []sample{{10, 80 * time.Millisecond}}, hedgeMin},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hist := histo.New(nil)
			for _, sm := range tc.samples {
				for i := 0; i < sm.n; i++ {
					hist.Observe(sm.d)
				}
			}
			a := newFakeReplica(t, 0)
			var buf bytes.Buffer
			hist.Snapshot().WritePrometheus(&buf, "rpserved_request_seconds", "test", "")
			a.mu.Lock()
			a.metrics = buf.String()
			a.mu.Unlock()

			rt := newTestRouter(t, Config{Replicas: []string{a.host()}})
			rt.probeOnce()
			if got := time.Duration(rt.hedgeDelayNS.Load()); got != tc.want {
				t.Fatalf("derived hedge delay = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestRouterAgainstRealReplicas is the key-agreement proof: the router
// in front of two real promotion servers. If the router's ResolveKey
// matched the replicas' internal keys, every repeat of a program lands
// on the replica that already cached it — so the second pass must be
// all memory-tier hits, with byte-identical outcomes throughout.
func TestRouterAgainstRealReplicas(t *testing.T) {
	mkReplica := func() (*server.Server, string) {
		s, err := server.New(server.Config{QueueDepth: 16})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(s.Handler())
		t.Cleanup(ts.Close)
		u, _ := url.Parse(ts.URL)
		return s, u.Host
	}
	_, hostA := mkReplica()
	_, hostB := mkReplica()
	rt := newTestRouter(t, Config{Replicas: []string{hostA, hostB}})
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	corpus, err := workload.ReplayCorpus(7, 6, "small")
	if err != nil {
		t.Fatal(err)
	}
	client := ts.Client()
	outcomes := make(map[int]string)
	var resp struct {
		Outcome json.RawMessage `json:"outcome"`
		Serving struct {
			Cache string `json:"cache"`
		} `json:"serving"`
	}
	for pass := 0; pass < 2; pass++ {
		for i, wl := range corpus {
			body := promoteBody(t, wl.Src)
			r, err := client.Post(ts.URL+"/v1/promote", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			data := readAll(t, r)
			if r.StatusCode != http.StatusOK {
				t.Fatalf("pass %d program %d: status %d: %s", pass, i, r.StatusCode, data)
			}
			if err := json.Unmarshal(data, &resp); err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				outcomes[i] = string(resp.Outcome)
				continue
			}
			if string(resp.Outcome) != outcomes[i] {
				t.Fatalf("program %d outcome diverged across passes", i)
			}
			if resp.Serving.Cache != "hit" {
				t.Fatalf("pass 2 program %d: cache=%q, want hit — router key does not match replica key",
					i, resp.Serving.Cache)
			}
		}
	}
}

func readAll(t *testing.T, r *http.Response) []byte {
	t.Helper()
	defer r.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
