package server

import (
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/frontdoor"
)

// TestStripPortShapes is the table the IPv6 audit produced: bracketed
// IPv6 with and without ports and zones, portless IPv6, IPv4, and
// hostname shapes must all reduce to a stable per-host key under
// frontdoor.Host, which the replica keys its rate limiter on.
func TestStripPortShapes(t *testing.T) {
	cases := []struct{ addr, want string }{
		{"10.0.0.1:8080", "10.0.0.1"},
		{"10.0.0.1", "10.0.0.1"},
		{"host:123", "host"},
		{"host", "host"},
		{"host:", "host:"},         // trailing colon, no digits
		{"host:12ab", "host:12ab"}, // non-numeric suffix is not a port
		{":8080", ":8080"},         // no host part to key on
		{"[::1]:8080", "::1"},
		{"[::1]", "::1"},
		{"[fe80::1%eth0]:443", "fe80::1%eth0"},
		{"[fe80::1%eth0]", "fe80::1%eth0"},
		{"[2001:db8::7]:65535", "2001:db8::7"},
		{"::1", "::1"},                      // portless; old heuristic returned ":"
		{"fe80::2", "fe80::2"},              // candidate port right after "::"
		{"2001:db8::5:8080", "2001:db8::5"}, // ambiguous; stripped for stability
		{"::1:40001", "::1"},
		{"unix-socket", "unix-socket"},
	}
	for _, c := range cases {
		if got := frontdoor.Host(c.addr); got != c.want {
			t.Errorf("Host(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
	// The invariant rate limiting needs: the same host with different
	// ephemeral ports lands in the same bucket, for every shape.
	pairs := [][2]string{
		{"10.0.0.1:1111", "10.0.0.1:2222"},
		{"[::1]:1111", "[::1]:2222"},
		{"[fe80::1%eth0]:1111", "[fe80::1%eth0]:2222"},
		{"::1:1111", "::1:2222"},
	}
	for _, p := range pairs {
		if a, b := frontdoor.Host(p[0]), frontdoor.Host(p[1]); a != b {
			t.Errorf("Host keys differ across ports: %q -> %q vs %q -> %q", p[0], a, p[1], b)
		}
	}
	// Bracketed and SplitHostPort-parsed forms agree on the bucket.
	if got := frontdoor.Host("[2001:db8::7]"); got != "2001:db8::7" {
		t.Errorf("bracketed key %q disagrees with SplitHostPort host", got)
	}
}

// TestMetricsAnalysisBuilds checks that /metrics counts pipeline runs
// and that a cache hit runs no pipeline: rpserved_pipeline_seconds_count
// moves on the first request and stays put on the identical second one.
func TestMetricsAnalysisBuilds(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})

	runs := func() int {
		t.Helper()
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("/metrics: %d", rec.Code)
		}
		m := regexp.MustCompile(`(?m)^rpserved_pipeline_seconds_count (\d+)$`).FindStringSubmatch(rec.Body.String())
		if m == nil {
			t.Fatalf("/metrics missing rpserved_pipeline_seconds_count:\n%s", rec.Body.String())
		}
		n, err := strconv.Atoi(m[1])
		if err != nil {
			t.Fatal(err)
		}
		return n
	}

	req := PromoteRequest{Source: smallSrc, Options: RequestOptions{SkipMeasurement: true}}
	postPromote(t, s, req)
	if n := runs(); n != 1 {
		t.Fatalf("pipeline runs = %d after one miss, want 1", n)
	}
	postPromote(t, s, req)
	if n := runs(); n != 1 {
		t.Errorf("pipeline runs moved on a cache hit: 1 -> %d", n)
	}
}

// TestPressureCapRequestOption checks the option round-trips: negative
// is a 400 naming the field, positive runs and is part of the cache
// key.
func TestPressureCapRequestOption(t *testing.T) {
	s := newTestServer(t, Config{workers: 1})

	rec, _, fail := postPromote(t, s, PromoteRequest{Source: smallSrc, Options: RequestOptions{PressureCap: -1}})
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("negative pressure_cap: %d, want 400", rec.Code)
	}
	if !strings.Contains(fail.Error, "PressureCap") {
		t.Errorf("400 body does not name the field: %q", fail.Error)
	}

	rec, ok, _ := postPromote(t, s, PromoteRequest{Source: smallSrc, Options: RequestOptions{PressureCap: 6, SkipMeasurement: true}})
	if rec.Code != http.StatusOK {
		t.Fatalf("pressure_cap=6: %d", rec.Code)
	}
	if ok.Serving.Cache != "miss" {
		t.Errorf("first capped request cache = %q, want miss", ok.Serving.Cache)
	}
	// Same source without the cap is a different cache key.
	rec, ok2, _ := postPromote(t, s, PromoteRequest{Source: smallSrc, Options: RequestOptions{SkipMeasurement: true}})
	if rec.Code != http.StatusOK {
		t.Fatalf("uncapped request: %d", rec.Code)
	}
	if ok2.Serving.Cache != "miss" {
		t.Errorf("uncapped request cache = %q, want miss (capped entry must not be reused)", ok2.Serving.Cache)
	}
}
