package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/frontdoor"
	"repro/internal/pipeline"
)

// promoteKey computes the cache key the server will use for req —
// tests need it to watch flights and find disk entries.
func promoteKey(t *testing.T, req PromoteRequest) string {
	t.Helper()
	resolved, _, err := resolve(req.Options)
	if err != nil {
		t.Fatal(err)
	}
	return cacheKey(req.Source, resolved)
}

// TestSingleflightCollapsesIdenticalMisses fires N concurrent identical
// cache misses at a one-worker server whose leader is held at the
// pipeline boundary, and checks exactly one pipeline run happens, every
// caller gets 200 with byte-identical outcomes, and the collapse is
// visible in the counters. Run under -race this is also the
// singleflight memory-safety gate.
func TestSingleflightCollapsesIdenticalMisses(t *testing.T) {
	const n = 8
	s := newTestServer(t, Config{workers: 1})
	block := holdRuns(s)

	req := PromoteRequest{Source: smallSrc}
	key := promoteKey(t, req)

	type result struct {
		code    int
		cache   string
		outcome []byte
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, ok, _ := postPromote(t, s, req)
			results[i] = result{rec.Code, ok.Serving.Cache, ok.Outcome}
		}(i)
	}
	// The leader holds the worker slot at the test hook; everyone else
	// must be waiting on the flight, not on a worker slot.
	waitFor(t, "all waiters joined the flight", func() bool { return s.flights.waiting(key) == n-1 })
	if got := s.adm.inUse(); got != 1 {
		t.Fatalf("inUse = %d with %d identical requests, want 1 (waiters must not hold slots)", got, n)
	}
	close(block)
	wg.Wait()

	var miss, collapsed int
	for i, r := range results {
		if r.code != http.StatusOK {
			t.Fatalf("request %d: %d, want 200", i, r.code)
		}
		switch r.cache {
		case "miss":
			miss++
		case "collapsed":
			collapsed++
		default:
			t.Fatalf("request %d: cache=%q, want miss or collapsed", i, r.cache)
		}
		if !bytes.Equal(r.outcome, results[0].outcome) {
			t.Fatalf("request %d outcome differs from request 0", i)
		}
	}
	if miss != 1 || collapsed != n-1 {
		t.Fatalf("miss=%d collapsed=%d, want 1/%d", miss, collapsed, n-1)
	}
	if got := s.m.cacheMisses.Load(); got != 1 {
		t.Fatalf("pipeline ran %d times, want 1", got)
	}
	if got := s.m.collapsed.Load(); got != int64(n-1) {
		t.Fatalf("collapsed counter = %d, want %d", got, n-1)
	}

	// The flight is gone; the next request is a plain memory hit.
	rec, after, _ := postPromote(t, s, req)
	if rec.Code != http.StatusOK || after.Serving.Cache != "hit" {
		t.Fatalf("post-flight request: %d cache=%q, want 200 hit", rec.Code, after.Serving.Cache)
	}
}

// TestFlightReleasesWaitersAfterMemoryPut checks the memory tier holds
// the leader's outcome by the time its flight releases the waiters.
// Otherwise a request arriving between the release and the put finds
// neither a flight nor an entry and runs the pipeline again. The test
// holds the memory tier's lock while the leader finishes: the flight
// must not complete until the lock is let go and the put goes through.
func TestFlightReleasesWaitersAfterMemoryPut(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	block := holdRuns(s)
	req := PromoteRequest{Source: smallSrc}
	key := promoteKey(t, req)

	code := make(chan int, 1)
	go func() {
		rec, _, _ := postPromote(t, s, req)
		code <- rec.Code
	}()
	waitFor(t, "leader holds the worker slot", func() bool { return s.adm.inUse() == 1 })
	s.flights.mu.Lock()
	f := s.flights.flights[key]
	s.flights.mu.Unlock()

	s.cache.mu.Lock()
	close(block)
	waitFor(t, "leader's pipeline run", func() bool { return s.m.pipelineNS.Load() > 0 })
	select {
	case <-f.done:
		s.cache.mu.Unlock()
		t.Fatal("the flight released its waiters before the memory tier held the outcome")
	case <-time.After(100 * time.Millisecond):
	}
	s.cache.mu.Unlock()
	<-f.done
	if _, ok := s.cache.Get(key); !ok {
		t.Fatal("memory tier lacks the outcome after the flight completed")
	}
	if c := <-code; c != http.StatusOK {
		t.Fatalf("leader: %d, want 200", c)
	}
}

// TestSingleflightLeaderErrorPropagates holds a leader whose pipeline
// will fail and checks every waiter receives the failure — nobody
// hangs, nobody gets fabricated bytes.
func TestSingleflightLeaderErrorPropagates(t *testing.T) {
	const n = 4
	s := newTestServer(t, Config{workers: 1})
	plan, err := faults.ParsePlan("compile:panic")
	if err != nil {
		t.Fatal(err)
	}
	block := make(chan struct{})
	s.beforeRun = func(popts *pipeline.Options) {
		<-block
		popts.Faults = faults.New(plan)
	}

	req := PromoteRequest{Source: smallSrc}
	key := promoteKey(t, req)

	codes := make([]int, n)
	kinds := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rec, _, fail := postPromote(t, s, req)
			codes[i], kinds[i] = rec.Code, fail.Kind
		}(i)
	}
	waitFor(t, "waiters joined", func() bool { return s.flights.waiting(key) == n-1 })
	close(block)
	wg.Wait()

	for i := 0; i < n; i++ {
		if codes[i] != http.StatusInternalServerError || kinds[i] != "stage_error" {
			t.Fatalf("request %d: %d kind=%q, want 500 stage_error", i, codes[i], kinds[i])
		}
	}
	// The failure is not cached: the same request, now without the
	// fault, runs the pipeline.
	s.beforeRun = nil
	rec, ok, _ := postPromote(t, s, req)
	if rec.Code != http.StatusOK || ok.Serving.Cache != "miss" {
		t.Fatalf("request after failed flight: %d cache=%q, want 200 miss", rec.Code, ok.Serving.Cache)
	}
}

// TestDiskTierWarmRestart checks a second server over the same cache
// directory serves the first server's outcomes from disk, byte for
// byte, and promotes them into its memory tier.
func TestDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	req := PromoteRequest{Source: smallSrc}

	s1 := newTestServer(t, Config{workers: 1, CacheDir: dir})
	rec, first, _ := postPromote(t, s1, req)
	if rec.Code != http.StatusOK || first.Serving.Cache != "miss" {
		t.Fatalf("first server: %d cache=%q, want 200 miss", rec.Code, first.Serving.Cache)
	}
	drain(t, s1) // a clean shutdown flushes the disk writer

	// "Restart": a brand-new server (empty memory tier) on the same dir.
	s2 := newTestServer(t, Config{workers: 1, CacheDir: dir})
	rec, warm, _ := postPromote(t, s2, req)
	if rec.Code != http.StatusOK || warm.Serving.Cache != "disk" {
		t.Fatalf("restarted server: %d cache=%q, want 200 disk", rec.Code, warm.Serving.Cache)
	}
	if !bytes.Equal(first.Outcome, warm.Outcome) || first.Report != warm.Report {
		t.Fatal("disk-served outcome differs from the originally computed one")
	}
	if s2.m.diskHits.Load() != 1 {
		t.Fatalf("diskHits = %d, want 1", s2.m.diskHits.Load())
	}
	// The disk hit was promoted: the next request is a memory hit.
	rec, hot, _ := postPromote(t, s2, req)
	if rec.Code != http.StatusOK || hot.Serving.Cache != "hit" {
		t.Fatalf("promoted entry: %d cache=%q, want 200 hit", rec.Code, hot.Serving.Cache)
	}
}

// TestMissDoesNotWaitForDisk checks a miss is answered before its disk
// write: with every disk operation slowed by 500 ms, the miss pays for
// its disk lookup but not for the write. Until Drain the entry is
// absent from disk and counted on rpserved_disk_write_queue; after
// Drain it is on disk, and a second server serves it from there byte
// for byte.
func TestMissDoesNotWaitForDisk(t *testing.T) {
	dir := t.TempDir()
	req := PromoteRequest{Source: smallSrc}
	s1 := newTestServer(t, Config{workers: 1, CacheDir: dir,
		DiskChaos: faults.NewDisk(faults.DiskPlan{SlowIO: 500 * time.Millisecond})})
	writeQueue := func(want string) {
		t.Helper()
		rec := httptest.NewRecorder()
		s1.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if line := "\nrpserved_disk_write_queue " + want + "\n"; !strings.Contains(rec.Body.String(), line) {
			t.Fatalf("/metrics lacks %q:\n%s", strings.TrimSpace(line), rec.Body.String())
		}
	}

	start := time.Now()
	rec, first, _ := postPromote(t, s1, req)
	elapsed := time.Since(start)
	if rec.Code != http.StatusOK || first.Serving.Cache != "miss" {
		t.Fatalf("first request: %d cache=%q, want 200 miss", rec.Code, first.Serving.Cache)
	}
	if elapsed >= 900*time.Millisecond {
		t.Fatalf("miss answered in %v, want under 900ms: the response waited for the disk write", elapsed)
	}
	if files := diskEntryFiles(t, dir); len(files) != 0 {
		t.Fatalf("%d entries on disk before Drain, want 0 (the write is still queued)", len(files))
	}
	writeQueue("1")

	drain(t, s1)
	writeQueue("0")
	if files := diskEntryFiles(t, dir); len(files) != 1 {
		t.Fatalf("%d entries on disk after Drain, want 1", len(files))
	}

	s2 := newTestServer(t, Config{workers: 1, CacheDir: dir})
	rec, warm, _ := postPromote(t, s2, req)
	if rec.Code != http.StatusOK || warm.Serving.Cache != "disk" {
		t.Fatalf("second server: %d cache=%q, want 200 disk", rec.Code, warm.Serving.Cache)
	}
	if !bytes.Equal(first.Outcome, warm.Outcome) || first.Report != warm.Report {
		t.Fatal("disk-served outcome differs from the computed one")
	}
}

// TestDiskTierBackfillsMemoryEviction squeezes the memory tier to one
// entry and checks entries evicted from memory are still served from
// disk — the interaction that makes the cold tier an extension of the
// hot one rather than a separate cache.
//
// Disk writes land behind the response, so a first server computes
// both entries and drains (flushing its writer) before a second server
// with the one-entry memory tier serves them.
func TestDiskTierBackfillsMemoryEviction(t *testing.T) {
	dir := t.TempDir()
	reqA := PromoteRequest{Source: smallSrc}
	reqB := PromoteRequest{Source: `void main() { print(7); }`}

	s1 := newTestServer(t, Config{workers: 1, memoryEntries: 1, CacheDir: dir})
	if rec, a, _ := postPromote(t, s1, reqA); rec.Code != 200 || a.Serving.Cache != "miss" {
		t.Fatalf("A first: %d %q", rec.Code, a.Serving.Cache)
	}
	// B evicts A from the one-entry memory tier.
	if rec, b, _ := postPromote(t, s1, reqB); rec.Code != 200 || b.Serving.Cache != "miss" {
		t.Fatalf("B first: %d %q", rec.Code, b.Serving.Cache)
	}
	drain(t, s1)

	s := newTestServer(t, Config{workers: 1, memoryEntries: 1, CacheDir: dir})
	if rec, a, _ := postPromote(t, s, reqA); rec.Code != 200 || a.Serving.Cache != "disk" {
		t.Fatalf("A on the second server: %d cache=%q, want disk", rec.Code, a.Serving.Cache)
	}
	// A's promotion into memory is evicted by B's.
	if rec, b, _ := postPromote(t, s, reqB); rec.Code != 200 || b.Serving.Cache != "disk" {
		t.Fatalf("B on the second server: %d cache=%q, want disk", rec.Code, b.Serving.Cache)
	}
	// A is gone from memory but alive on disk.
	rec, a2, _ := postPromote(t, s, reqA)
	if rec.Code != 200 || a2.Serving.Cache != "disk" {
		t.Fatalf("A after eviction: %d cache=%q, want disk", rec.Code, a2.Serving.Cache)
	}
	// A's promotion evicted B in turn; B comes from disk again.
	rec, b2, _ := postPromote(t, s, reqB)
	if rec.Code != 200 || b2.Serving.Cache != "disk" {
		t.Fatalf("B after A promoted: %d cache=%q, want disk", rec.Code, b2.Serving.Cache)
	}
	if s.m.cacheMisses.Load() != 0 {
		t.Fatalf("cacheMisses = %d on the second server, want 0", s.m.cacheMisses.Load())
	}
}

// diskEntryFiles lists the live entry files under a server's cache dir.
func diskEntryFiles(t *testing.T, dir string) []string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		parent := filepath.Base(filepath.Dir(path))
		if parent == "tmp" || parent == "bad" {
			return nil
		}
		files = append(files, path)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDiskCorruptionRecovery corrupts the stored entry between two
// server generations (truncation and bit flip) and checks the restarted
// server quarantines it, recomputes the identical bytes, and carries
// on — never a 500, never wrong bytes.
func TestDiskCorruptionRecovery(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/3] }},
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x01
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			req := PromoteRequest{Source: smallSrc}

			s1 := newTestServer(t, Config{workers: 1, CacheDir: dir})
			_, first, _ := postPromote(t, s1, req)
			drain(t, s1)

			files := diskEntryFiles(t, dir)
			if len(files) != 1 {
				t.Fatalf("found %d disk entries, want 1", len(files))
			}
			data, err := os.ReadFile(files[0])
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(files[0], tc.fn(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2 := newTestServer(t, Config{workers: 1, CacheDir: dir})
			rec, recomputed, _ := postPromote(t, s2, req)
			if rec.Code != http.StatusOK || recomputed.Serving.Cache != "miss" {
				t.Fatalf("corrupt entry: %d cache=%q, want 200 miss (recompute)", rec.Code, recomputed.Serving.Cache)
			}
			if !bytes.Equal(first.Outcome, recomputed.Outcome) {
				t.Fatal("recomputed outcome differs from the pre-corruption one")
			}
			if s2.m.diskCorrupt.Load() != 1 {
				t.Fatalf("diskCorrupt = %d, want 1", s2.m.diskCorrupt.Load())
			}
			// The mangled bytes were preserved for forensics.
			bad, err := filepath.Glob(filepath.Join(dir, "v*", "bad", "*"))
			if err != nil || len(bad) != 1 {
				t.Fatalf("quarantine dir holds %d files (err %v), want 1", len(bad), err)
			}
			// And the entry was re-written: after a drain flushes the
			// writer, a third generation serves it from disk again.
			drain(t, s2)
			s3 := newTestServer(t, Config{workers: 1, CacheDir: dir})
			rec, again, _ := postPromote(t, s3, req)
			if rec.Code != http.StatusOK || again.Serving.Cache != "disk" {
				t.Fatalf("after recompute: %d cache=%q, want 200 disk", rec.Code, again.Serving.Cache)
			}
		})
	}
}

// postPromoteAs is postPromote with a client identity header.
func postPromoteAs(t *testing.T, s *Server, client string, req PromoteRequest) (*httptest.ResponseRecorder, PromoteResponse, ErrorResponse) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr := httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body))
	hr.Header.Set("X-Client-ID", client)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, hr)
	var ok PromoteResponse
	var fail ErrorResponse
	if rec.Code == http.StatusOK {
		if err := json.Unmarshal(rec.Body.Bytes(), &ok); err != nil {
			t.Fatalf("decoding 200 body: %v\n%s", err, rec.Body.String())
		}
	} else if err := json.Unmarshal(rec.Body.Bytes(), &fail); err != nil {
		t.Fatalf("decoding %d body: %v\n%s", rec.Code, err, rec.Body.String())
	}
	return rec, ok, fail
}

// TestRateLimitIsolatesClients exhausts one client's token bucket and
// checks it gets 429 + Retry-After while a different client sails
// through — even on cache hits, which never touch the worker pool.
func TestRateLimitIsolatesClients(t *testing.T) {
	s := newTestServer(t, Config{workers: 1, RateLimit: 0.001, RateBurst: 2})
	req := PromoteRequest{Source: smallSrc}

	for i := 0; i < 2; i++ {
		if rec, _, _ := postPromoteAs(t, s, "greedy", req); rec.Code != http.StatusOK {
			t.Fatalf("burst request %d: %d, want 200", i, rec.Code)
		}
	}
	rec, _, fail := postPromoteAs(t, s, "greedy", req)
	if rec.Code != http.StatusTooManyRequests || fail.Kind != "rate_limited" {
		t.Fatalf("exhausted client: %d kind=%q, want 429 rate_limited", rec.Code, fail.Kind)
	}
	ra := rec.Header().Get("Retry-After")
	if ra == "" {
		t.Fatal("429 missing Retry-After")
	}
	if secs, err := strconv.Atoi(ra); err != nil || secs < 1 {
		t.Fatalf("Retry-After %q, want whole seconds >= 1", ra)
	}
	if s.m.rateLimited.Load() != 1 {
		t.Fatalf("rateLimited = %d, want 1", s.m.rateLimited.Load())
	}

	// A different client is untouched by the greedy one's exhaustion.
	if rec, ok, _ := postPromoteAs(t, s, "polite", req); rec.Code != http.StatusOK || ok.Serving.Cache != "hit" {
		t.Fatalf("other client: %d cache=%q, want 200 hit", rec.Code, ok.Serving.Cache)
	}
}

// TestRateLimitRefill checks tokens come back with time: the replica's
// bucket refills at the configured rate rather than staying empty
// forever.
func TestRateLimitRefill(t *testing.T) {
	s := newTestServer(t, Config{workers: 1, RateLimit: 100, RateBurst: 1}) // 100 tokens/s, burst 1
	now := time.Now()
	if ok, _ := s.limiter.Allow("c", now); !ok {
		t.Fatal("first request rejected with a full bucket")
	}
	if ok, retry := s.limiter.Allow("c", now); ok {
		t.Fatal("second immediate request allowed with burst 1")
	} else if retry <= 0 || retry > 2*time.Second {
		t.Fatalf("retry hint %v out of range", retry)
	}
	if ok, _ := s.limiter.Allow("c", now.Add(50*time.Millisecond)); !ok {
		t.Fatal("request after refill interval rejected")
	}
}

// TestReadyz checks readiness is distinct from liveness: not-ready on
// queue saturation (while /healthz stays 200) and on drain.
func TestReadyz(t *testing.T) {
	s := newTestServer(t, Config{workers: 1, QueueDepth: 1})
	get := func(path string) (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code, rec.Body.String()
	}

	if code, body := get("/readyz"); code != http.StatusOK {
		t.Fatalf("/readyz idle: %d %s", code, body)
	}

	// Saturate: one request holds the worker, one holds the queue slot.
	block := holdRuns(s)
	done := make(chan struct{}, 2)
	fire := func(src string) {
		go func() {
			postPromote(t, s, PromoteRequest{Source: src})
			done <- struct{}{}
		}()
	}
	fire(smallSrc)
	waitFor(t, "worker busy", func() bool { return s.adm.inUse() == 1 })
	fire(`void main() { print(4); }`)
	waitFor(t, "queue full", func() bool { return s.adm.waiting() == 1 })

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("saturated")) {
		t.Fatalf("/readyz saturated: %d %s, want 503 with reason", code, body)
	}
	// Liveness is unaffected: the process is healthy, just busy.
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz while saturated: %d, want 200", code)
	}

	close(block)
	<-done
	<-done
	waitFor(t, "queue drained", func() bool { return !s.adm.saturated() })
	if code, _ := get("/readyz"); code != http.StatusOK {
		t.Fatal("/readyz did not recover after saturation cleared")
	}

	go s.Drain(context.Background())
	waitFor(t, "draining", s.gate.Draining)
	if code, body := get("/readyz"); code != http.StatusServiceUnavailable || !bytes.Contains([]byte(body), []byte("draining")) {
		t.Fatalf("/readyz draining: %d %s, want 503 draining", code, body)
	}
}

// TestBadRequestFieldNames checks every invalid option maps to a 400
// whose body names the offending field — the contract that lets a
// client fix its request programmatically.
func TestBadRequestFieldNames(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	cases := []struct {
		opts  RequestOptions
		field string
	}{
		{RequestOptions{Algorithm: "turbo"}, "Algorithm"},
		{RequestOptions{Check: "extreme"}, "Check"},
		{RequestOptions{MaxSteps: -5}, "Interp.MaxSteps"},
		{RequestOptions{TimeoutMS: -5}, "Interp.Timeout"},
		{RequestOptions{PressureCap: -1}, "PressureCap"},
	}
	for _, tc := range cases {
		rec, _, fail := postPromote(t, s, PromoteRequest{Source: smallSrc, Options: tc.opts})
		if rec.Code != http.StatusBadRequest || fail.Kind != "bad_request" {
			t.Fatalf("%+v: %d kind=%q, want 400 bad_request", tc.opts, rec.Code, fail.Kind)
		}
		if fail.Field != tc.field {
			t.Fatalf("%+v: field=%q, want %q (error: %s)", tc.opts, fail.Field, tc.field, fail.Error)
		}
	}
}

// TestChaosDiskFaultsNeverFailRequests runs a server whose disk tier
// fails constantly — reads, writes, checksums all injected — and checks
// every request still succeeds with correct bytes: the cold tier can
// only ever add durability, never subtract correctness.
func TestChaosDiskFaultsNeverFailRequests(t *testing.T) {
	// The injector arrives via the config — the same wiring rpserved's
	// -chaos-disk flag uses.
	s := newTestServer(t, Config{
		workers:  1,
		CacheDir: t.TempDir(),
		DiskChaos: faults.NewDisk(faults.DiskPlan{
			ReadErr: 0.5, WriteErr: 0.5, ChecksumErr: 0.5, Seed: 7,
		}),
	})
	req := PromoteRequest{Source: smallSrc}
	var first []byte
	for i := 0; i < 6; i++ {
		rec, ok, fail := postPromote(t, s, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d under disk chaos: %d %s", i, rec.Code, fail.Error)
		}
		if first == nil {
			first = ok.Outcome
		} else if !bytes.Equal(first, ok.Outcome) {
			t.Fatalf("request %d outcome differs under disk chaos", i)
		}
	}
	if s.m.serverErrors.Load() != 0 {
		t.Fatalf("serverErrors = %d under disk chaos, want 0", s.m.serverErrors.Load())
	}
	// The one computed outcome was handed to the disk writer, which
	// either stored it or counted the failure by the end of the drain.
	drain(t, s)
	if stored, failed := s.disk.Stats().Entries, s.m.diskWriteErrors.Load(); int64(stored)+failed != 1 {
		t.Fatalf("after drain: %d entries stored, %d writes failed; want one of the two", stored, failed)
	}
}

// TestClientKeyStableWithoutPort checks the rate-limit key is stable
// across connections for every RemoteAddr shape: with a burst of one, a
// reconnect from the same host on a fresh ephemeral port must find the
// bucket already empty. The regression: an address net.SplitHostPort
// cannot parse (unbracketed IPv6 with a port) used to key on the raw
// address, ephemeral port included, so each reconnect got a fresh
// bucket and the limit never bound.
func TestClientKeyStableWithoutPort(t *testing.T) {
	s := newTestServer(t, Config{workers: 1, RateLimit: 0.001, RateBurst: 1})
	body, err := json.Marshal(PromoteRequest{Source: smallSrc})
	if err != nil {
		t.Fatal(err)
	}
	postFrom := func(remote, clientID string) int {
		hr := httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body))
		hr.RemoteAddr = remote
		if clientID != "" {
			hr.Header.Set("X-Client-ID", clientID)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, hr)
		return rec.Code
	}
	for _, p := range [][2]string{
		{"::1:40001", "::1:40002"},
		{"10.1.2.3:40001", "10.1.2.3:40002"},
		{"[fe80::1%eth0]:40001", "[fe80::1%eth0]:40002"},
		{"unix-socket", "unix-socket"}, // no port at all: the address is the key
	} {
		if code := postFrom(p[0], ""); code != http.StatusOK {
			t.Fatalf("first request from %s: %d, want 200", p[0], code)
		}
		if code := postFrom(p[1], ""); code != http.StatusTooManyRequests {
			t.Fatalf("reconnect from %s after %s: %d, want 429 (same host, same bucket)", p[1], p[0], code)
		}
	}
	// The header, when present, wins over the exhausted address.
	if code := postFrom("10.1.2.3:40003", "tenant-7"); code != http.StatusOK {
		t.Fatalf("X-Client-ID from an exhausted host: %d, want 200", code)
	}
}

// TestRateLimitEvictionBounded fills the replica's client map past its
// cap and checks admission stays bounded: the map never exceeds
// frontdoor.MaxKeys, and the rpserved_rate_limit_clients gauge reports
// the bounded count.
func TestRateLimitEvictionBounded(t *testing.T) {
	s := newTestServer(t, Config{workers: 1, RateLimit: 1, RateBurst: 1})
	now := time.Now()
	// An old cohort that eviction should prefer once sampled.
	for i := 0; i < frontdoor.MaxKeys; i++ {
		s.limiter.Allow("old-"+strconv.Itoa(i), now)
	}
	for i := 0; i < frontdoor.MaxKeys/2; i++ {
		s.limiter.Allow("new-"+strconv.Itoa(i), now.Add(time.Hour))
	}
	if got := s.limiter.Len(); got > frontdoor.MaxKeys {
		t.Fatalf("clients = %d, want <= %d", got, frontdoor.MaxKeys)
	}
	// Churn well past the cap: with a full scan per eviction this loop
	// is quadratic in the cap; with sampling it stays flat.
	for i := 0; i < 2*frontdoor.MaxKeys; i++ {
		s.limiter.Allow("churn-"+strconv.Itoa(i), now.Add(2*time.Hour))
	}
	got := s.limiter.Len()
	if got > frontdoor.MaxKeys {
		t.Fatalf("after churn: clients = %d, want <= %d", got, frontdoor.MaxKeys)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	want := "rpserved_rate_limit_clients " + strconv.Itoa(got)
	if !bytes.Contains(rec.Body.Bytes(), []byte(want)) {
		t.Fatalf("/metrics missing %q", want)
	}
}

// TestFlightWaiterRetriesCanceledLeader: when a singleflight leader's
// own client vanishes while the leader is queued for admission (the
// router's hedge-loser cancellation), its waiters must not inherit the
// cancellation — a live waiter retries the flight, becomes the new
// leader, and serves a normal 200.
func TestFlightWaiterRetriesCanceledLeader(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})
	block := holdRuns(s)

	// Occupy the only worker slot with an unrelated program so the
	// leader below parks in the admission queue.
	holdReq := PromoteRequest{Source: "int hold() { return 42; }\nint main() { return hold(); }"}
	var holdWG sync.WaitGroup
	holdWG.Add(1)
	go func() {
		defer holdWG.Done()
		postPromote(t, s, holdReq)
	}()
	waitFor(t, "slot holder admitted", func() bool { return s.adm.inUse() == 1 })

	// Leader for the shared key, with a cancellable client context; it
	// joins the flight first, then waits in the admission queue.
	req := PromoteRequest{Source: smallSrc}
	key := promoteKey(t, req)
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan int, 1)
	go func() {
		hr := httptest.NewRequest(http.MethodPost, "/v1/promote", bytes.NewReader(body)).WithContext(ctx)
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, hr)
		leaderDone <- rec.Code
	}()
	waitFor(t, "leader joined the flight", func() bool {
		s.flights.mu.Lock()
		_, live := s.flights.flights[key]
		s.flights.mu.Unlock()
		return live
	})

	// Waiter on the same key with a live client.
	type outcome struct {
		code  int
		cache string
	}
	waiterDone := make(chan outcome, 1)
	go func() {
		rec, ok, _ := postPromote(t, s, req)
		waiterDone <- outcome{rec.Code, ok.Serving.Cache}
	}()
	waitFor(t, "waiter joined the flight", func() bool { return s.flights.waiting(key) == 1 })

	// Kill the leader's client. The leader aborts out of the admission
	// queue; the waiter must retry, inherit leadership, and queue up.
	cancel()
	if code := <-leaderDone; code != http.StatusRequestTimeout {
		t.Fatalf("canceled leader got %d, want 408", code)
	}
	// Release the slot holder; the retried waiter now runs for real.
	close(block)
	holdWG.Wait()
	got := <-waiterDone
	if got.code != http.StatusOK {
		t.Fatalf("waiter got %d after leader cancellation, want 200", got.code)
	}
	if got.cache != "miss" {
		t.Fatalf("waiter cache=%q, want miss (it should have become the new leader)", got.cache)
	}
}
