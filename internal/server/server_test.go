package server

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/pipeline"
)

const smallSrc = `
int a = 1;
void main() {
	int i;
	for (i = 0; i < 8; i++) a = a + 2;
	print(a);
}
`

// spinSrc never terminates; only the interpreter bounds stop it.
const spinSrc = `
int x;
void main() {
	while (1 > 0) { x = x + 1; }
}
`

// newTestServer builds a server or fails the test. The server is
// drained when the test ends, so its disk writer never outlives the
// test's temporary cache directory.
func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { drain(t, s) })
	return s
}

// holdRuns makes every pipeline run of s wait, holding its worker
// slot, until the returned channel is closed.
func holdRuns(s *Server) chan struct{} {
	block := make(chan struct{})
	s.beforeRun = func(*pipeline.Options) { <-block }
	return block
}

// injectFault makes every pipeline run of s fire plan
// (stage[/func][:mode]), each run with a fresh injector.
func injectFault(t *testing.T, s *Server, plan string) {
	t.Helper()
	p, err := faults.ParsePlan(plan)
	if err != nil {
		t.Fatal(err)
	}
	s.beforeRun = func(popts *pipeline.Options) { popts.Faults = faults.New(p) }
}

// drain drains s, flushing its disk writer, or fails the test.
func drain(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("Drain = %v", err)
	}
}

func postPromote(t *testing.T, s *Server, req PromoteRequest) (*httptest.ResponseRecorder, PromoteResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body)))
	var ok PromoteResponse
	var fail ErrorResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
			t.Fatalf("decoding 200 body: %v\n%s", err, rec.Body.String())
		}
	} else {
		if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil {
			t.Fatalf("decoding %d body: %v\n%s", rec.Code, err, rec.Body.String())
		}
	}
	return rec, ok, fail
}

// waitFor polls cond for up to 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// TestCacheHitVsMiss checks the second identical request is served from
// the content-addressed cache with a byte-identical outcome, and that
// changing either the source or the options misses.
func TestCacheHitVsMiss(t *testing.T) {
	s := newTestServer(t, Config{workers: 2})
	req := PromoteRequest{Source: smallSrc}

	rec, first, _ := postPromote(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("first request: %d %s", rec.Code, rec.Body.String())
	}
	if first.Serving.Cache != "miss" {
		t.Fatalf("first request cache = %q, want miss", first.Serving.Cache)
	}
	if first.Serving.SchemaVersion != 1 {
		t.Fatalf("serving schema_version = %d, want 1", first.Serving.SchemaVersion)
	}

	rec, second, _ := postPromote(t, s, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("second request: %d %s", rec.Code, rec.Body.String())
	}
	if second.Serving.Cache != "hit" {
		t.Fatalf("second request cache = %q, want hit", second.Serving.Cache)
	}
	if !bytes.Equal(first.Outcome, second.Outcome) || first.Report != second.Report {
		t.Fatal("cached outcome differs from computed outcome")
	}
	if s.m.cacheHits.Load() != 1 || s.m.cacheMisses.Load() != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1", s.m.cacheHits.Load(), s.m.cacheMisses.Load())
	}

	// Different options → different content address → miss.
	rec, third, _ := postPromote(t, s, PromoteRequest{Source: smallSrc,
		Options: RequestOptions{Algorithm: "none"}})
	if rec.Code != http.StatusOK || third.Serving.Cache != "miss" {
		t.Fatalf("different-options request: %d cache=%q, want 200 miss", rec.Code, third.Serving.Cache)
	}
}

// TestOutcomeDeterministicAcrossWorkerCounts checks the outcome payload
// is identical for per-request worker counts 1 and 2 (different cache
// keys, so both actually run the pipeline).
func TestOutcomeDeterministicAcrossWorkerCounts(t *testing.T) {
	s := newTestServer(t, Config{workers: 2})
	_, one, _ := postPromote(t, s, PromoteRequest{Source: smallSrc, Options: RequestOptions{Workers: 1}})
	_, two, _ := postPromote(t, s, PromoteRequest{Source: smallSrc, Options: RequestOptions{Workers: 2}})
	if one.Serving.Cache != "miss" || two.Serving.Cache != "miss" {
		t.Fatalf("expected two misses, got %q and %q", one.Serving.Cache, two.Serving.Cache)
	}
	if !bytes.Equal(one.Outcome, two.Outcome) {
		t.Fatalf("outcome differs across worker counts:\n%s\nvs\n%s", one.Outcome, two.Outcome)
	}
	if one.Report != two.Report {
		t.Fatal("report differs across worker counts")
	}
}

// TestBadRequests checks malformed bodies and invalid options map to
// 400s with the bad_request kind, while an unknown option field is
// ignored.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/promote",
		strings.NewReader("{not json")))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("invalid JSON: %d, want 400", rec.Code)
	}

	cases := []PromoteRequest{
		{Source: ""},
		{Source: smallSrc, Options: RequestOptions{Algorithm: "turbo"}},
		{Source: smallSrc, Options: RequestOptions{Check: "extreme"}},
		{Source: smallSrc, Options: RequestOptions{Workers: -1}},
		{Source: smallSrc, Options: RequestOptions{Workers: 99}},
		{Source: smallSrc, Options: RequestOptions{MaxSteps: -5}},
		{Source: smallSrc, Options: RequestOptions{TimeoutMS: -5}},
	}
	for i, req := range cases {
		rec, _, fail := postPromote(t, s, req)
		if rec.Code != http.StatusBadRequest || fail.Kind != "bad_request" {
			t.Fatalf("case %d: %d kind=%q, want 400 bad_request (%s)", i, rec.Code, fail.Kind, fail.Error)
		}
	}

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/promote", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/promote: %d, want 405", rec.Code)
	}

	// A body that still carries the retired "fault" option is served
	// like any other unknown field: ignored, with no fault injected.
	body, err := json.Marshal(map[string]any{"source": smallSrc,
		"options": map[string]any{"fault": "compile:panic"}})
	if err != nil {
		t.Fatal(err)
	}
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf(`body with "fault": %d %s, want 200`, rec.Code, rec.Body.String())
	}
}

// TestBackpressureWhenQueueFull holds the only worker slot busy, fills
// the one queue slot, and checks the next request is rejected with 429
// and a Retry-After header instead of waiting.
func TestBackpressureWhenQueueFull(t *testing.T) {
	s := newTestServer(t, Config{workers: 1, QueueDepth: 1})
	block := holdRuns(s)

	type result struct {
		code  int
		cache string
	}
	results := make(chan result, 2)
	fire := func(src string) {
		go func() {
			rec, ok, _ := postPromote(t, s, PromoteRequest{Source: src})
			results <- result{rec.Code, ok.Serving.Cache}
		}()
	}

	fire(smallSrc)
	waitFor(t, "worker slot held", func() bool { return s.adm.inUse() == 1 })
	fire(`void main() { print(2); }`)
	waitFor(t, "queue slot held", func() bool { return s.adm.waiting() == 1 })

	// Both tiers are full: this request must be rejected immediately.
	rec, _, fail := postPromote(t, s, PromoteRequest{Source: `void main() { print(3); }`})
	if rec.Code != http.StatusTooManyRequests || fail.Kind != "queue_full" {
		t.Fatalf("saturated server: %d kind=%q, want 429 queue_full", rec.Code, fail.Kind)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After header")
	}
	if s.m.rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", s.m.rejected.Load())
	}

	// Unblock: both held requests must complete successfully.
	close(block)
	for i := 0; i < 2; i++ {
		r := <-results
		if r.code != http.StatusOK {
			t.Fatalf("held request %d finished with %d, want 200", i, r.code)
		}
	}
	if got := s.m.queuedTotal.Load(); got != 1 {
		t.Fatalf("queuedTotal = %d, want 1", got)
	}
}

// TestRequestTimeout checks a program that exhausts its per-request
// interpreter bounds maps to 408 with the timeout kind, for both the
// wall-clock and the step bound.
func TestRequestTimeout(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})

	rec, _, fail := postPromote(t, s, PromoteRequest{Source: spinSrc,
		Options: RequestOptions{TimeoutMS: 30}})
	if rec.Code != http.StatusRequestTimeout || fail.Kind != "timeout" {
		t.Fatalf("wall-clock bound: %d kind=%q (%s), want 408 timeout", rec.Code, fail.Kind, fail.Error)
	}
	if fail.Stage == "" {
		t.Fatal("timeout response does not name the failing stage")
	}

	rec, _, fail = postPromote(t, s, PromoteRequest{Source: spinSrc,
		Options: RequestOptions{MaxSteps: 10_000}})
	if rec.Code != http.StatusRequestTimeout || fail.Kind != "timeout" {
		t.Fatalf("step bound: %d kind=%q (%s), want 408 timeout", rec.Code, fail.Kind, fail.Error)
	}
	if s.m.timeouts.Load() != 2 {
		t.Fatalf("timeout counter = %d, want 2", s.m.timeouts.Load())
	}
}

// TestPanicInPipelineReturns500WithStageError injects a panic into a
// whole-program stage and checks the response is a 500 carrying the
// structured StageError fields.
func TestPanicInPipelineReturns500WithStageError(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	injectFault(t, s, "compile:panic")
	rec, _, fail := postPromote(t, s, PromoteRequest{Source: smallSrc})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("injected panic: %d, want 500", rec.Code)
	}
	if fail.Kind != "stage_error" || fail.Stage != "compile" {
		t.Fatalf("injected panic body: kind=%q stage=%q, want stage_error/compile", fail.Kind, fail.Stage)
	}
	if !strings.Contains(fail.Error, "panic") {
		t.Fatalf("error %q does not mention the panic", fail.Error)
	}
	if s.m.serverErrors.Load() != 1 {
		t.Fatalf("serverErrors = %d, want 1", s.m.serverErrors.Load())
	}
}

// TestPanicInPerFunctionStageDegrades checks a per-function panic is
// absorbed by the pipeline's rollback machinery: the request still
// succeeds, with the function listed as degraded in the outcome.
func TestPanicInPerFunctionStageDegrades(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	injectFault(t, s, "promote/main:panic")
	rec, ok, _ := postPromote(t, s, PromoteRequest{Source: smallSrc})
	if rec.Code != http.StatusOK {
		t.Fatalf("per-function panic: %d %s, want 200", rec.Code, rec.Body.String())
	}
	var outcome struct {
		Degraded []struct {
			Func  string `json:"func"`
			Stage string `json:"stage"`
		} `json:"degraded"`
	}
	if err := json.Unmarshal(ok.Outcome, &outcome); err != nil {
		t.Fatal(err)
	}
	if len(outcome.Degraded) != 1 || outcome.Degraded[0].Func != "main" || outcome.Degraded[0].Stage != "promote" {
		t.Fatalf("degraded = %+v, want main at promote", outcome.Degraded)
	}
}

// TestDrain checks draining flips /healthz to 503, rejects new promote
// requests, and waits for in-flight requests to finish.
func TestDrain(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	block := holdRuns(s)

	inflight := make(chan int, 1)
	go func() {
		rec, _, _ := postPromote(t, s, PromoteRequest{Source: smallSrc})
		inflight <- rec.Code
	}()
	waitFor(t, "in-flight request", func() bool { return s.adm.inUse() == 1 })

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Drain(ctx)
	}()
	waitFor(t, "draining flag", s.gate.Draining)

	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/healthz while draining: %d, want 503", rec.Code)
	}
	rec, _, fail := postPromote(t, s, PromoteRequest{Source: `void main() { print(9); }`})
	if rec.Code != http.StatusServiceUnavailable || fail.Kind != "draining" {
		t.Fatalf("promote while draining: %d kind=%q, want 503 draining", rec.Code, fail.Kind)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight request finished", err)
	default:
	}
	close(block)
	if err := <-drained; err != nil {
		t.Fatalf("Drain = %v, want nil", err)
	}
	if code := <-inflight; code != http.StatusOK {
		t.Fatalf("in-flight request finished with %d, want 200", code)
	}
}

// TestHealthzAndMetrics spot-checks the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"status":"ok"`) {
		t.Fatalf("/healthz: %d %s", rec.Code, rec.Body.String())
	}

	postPromote(t, s, PromoteRequest{Source: smallSrc})
	postPromote(t, s, PromoteRequest{Source: smallSrc})

	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{
		"rpserved_requests_total 2",
		"rpserved_cache_hits_total 1",
		"rpserved_cache_misses_total 1",
		"rpserved_cache_entries 1",
		"rpserved_inflight_workers 0",
		"rpserved_queue_depth 0",
		`rpserved_stage_wall_ms_total{stage="promote"}`,
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}
}
