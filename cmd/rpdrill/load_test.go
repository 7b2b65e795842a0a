package main

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/server"
)

// small is a load the fake servers below answer in microseconds.
var small = mix{n: 12, c: 3, unique: 3, size: "small"}

// fake serves /v1/promote like rpserved: a 200 whose outcome is a
// digest of the request's source, unless answer, given the request's
// 0-based arrival number, writes a response itself and returns true.
func fake(t *testing.T, cache func(n int64) string, answer func(w http.ResponseWriter, n int64) bool) *httptest.Server {
	t.Helper()
	var arrivals atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := arrivals.Add(1) - 1
		var req server.PromoteRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if answer != nil && answer(w, n) {
			return
		}
		sum := sha256.Sum256([]byte(req.Source))
		frontdoor.WriteJSON(w, http.StatusOK, server.PromoteResponse{
			Outcome: json.RawMessage(fmt.Sprintf("%q", fmt.Sprintf("%x", sum[:8]))),
			Serving: server.ServingMeta{Cache: cache(n)},
		})
	}))
	t.Cleanup(srv.Close)
	return srv
}

func miss(int64) string { return "miss" }

func TestLoadReadsServingCache(t *testing.T) {
	kinds := []string{"hit", "disk", "collapsed", "miss"}
	srv := fake(t, func(n int64) string { return kinds[n%4] }, nil)
	tl, err := load(srv.URL, small, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.verdict(); err != nil {
		t.Fatal(err)
	}
	for _, k := range kinds {
		if got := tl.count(k); got != small.n/4 {
			t.Errorf("count(%q) = %d, want %d", k, got, small.n/4)
		}
	}
	if len(tl.outcomes) != small.unique {
		t.Errorf("%d programs recorded, want %d", len(tl.outcomes), small.unique)
	}
}

func TestVerdictFails(t *testing.T) {
	for _, tc := range []struct {
		name   string
		answer func(w http.ResponseWriter, n int64) bool
		want   string
	}{
		{"5xx", func(w http.ResponseWriter, n int64) bool {
			if n == 5 {
				http.Error(w, "boom", http.StatusInternalServerError)
			}
			return n == 5
		}, "HTTP 500"},
		{"503", func(w http.ResponseWriter, n int64) bool {
			if n == 7 {
				http.Error(w, "draining", http.StatusServiceUnavailable)
			}
			return n == 7
		}, "HTTP 503"},
		{"transport error", func(w http.ResponseWriter, n int64) bool {
			if n != 3 {
				return false
			}
			conn, _, err := w.(http.Hijacker).Hijack()
			if err == nil {
				conn.Close()
			}
			return true
		}, "EOF"},
		{"divergence", func(w http.ResponseWriter, n int64) bool {
			if n != 9 {
				return false
			}
			frontdoor.WriteJSON(w, http.StatusOK, server.PromoteResponse{
				Outcome: json.RawMessage(`"different"`),
				Serving: server.ServingMeta{Cache: "hit"},
			})
			return true
		}, "diverged"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tl, err := load(fake(t, miss, tc.answer).URL, small, nil)
			if err != nil {
				t.Fatal(err)
			}
			err = tl.verdict()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verdict %v, want an error naming %q", err, tc.want)
			}
		})
	}
}

func TestLoadRetries429AfterRetryAfter(t *testing.T) {
	srv := fake(t, miss, func(w http.ResponseWriter, n int64) bool {
		if n == 0 {
			w.Header().Set("Retry-After", frontdoor.RetryAfter(time.Second))
			http.Error(w, "slow down", http.StatusTooManyRequests)
		}
		return n == 0
	})
	start := time.Now()
	tl, err := load(srv.URL, mix{n: 1, c: 1, unique: 1, size: "small"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.verdict(); err != nil {
		t.Fatal(err)
	}
	if tl.retries != 1 {
		t.Errorf("%d retries, want 1", tl.retries)
	}
	if waited := time.Since(start); waited < time.Second {
		t.Errorf("retried after %v, before the 1s Retry-After", waited)
	}
}

// gated answers the first arrival once the second has started reading
// its body, so the first 200 comes back with the second in flight;
// the second waits for the signal and then answers with after.
func gated(t *testing.T, after func(w http.ResponseWriter) bool) (url string, signal func()) {
	second := make(chan struct{})
	signalled := make(chan struct{})
	srv := fake(t, miss, func(w http.ResponseWriter, n int64) bool {
		switch n {
		case 0:
			<-second
		case 1:
			close(second)
			<-signalled
			return after(w)
		}
		return false
	})
	return srv.URL, func() { close(signalled) }
}

func TestLoadSignalsWithRequestInFlight(t *testing.T) {
	url, signal := gated(t, func(http.ResponseWriter) bool { return false })
	calls := 0
	tl, err := load(url, mix{n: 2, c: 2, unique: 1, size: "small"}, func() { calls++; signal() })
	if err != nil {
		t.Fatal(err)
	}
	if err := tl.verdict(); err != nil {
		t.Fatal(err)
	}
	if calls != 1 || !tl.signalled || tl.inflight != 1 || tl.answered != 1 {
		t.Fatalf("signal called %d times, signalled %v, %d of %d in flight answered; want 1, true, 1 of 1",
			calls, tl.signalled, tl.answered, tl.inflight)
	}

	// A load of one request has nothing in flight at its only answer.
	tl, err = load(url, mix{n: 1, c: 1, unique: 1, size: "small"}, func() { calls++ })
	if err != nil {
		t.Fatal(err)
	}
	if tl.signalled || calls != 1 {
		t.Fatalf("a load with nothing in flight signalled (%d calls)", calls)
	}
}

// TestLoadCountsInflightCutBySignal fails the request in flight after
// the signal: a server that drops its requests when told to drain.
func TestLoadCountsInflightCutBySignal(t *testing.T) {
	url, signal := gated(t, func(w http.ResponseWriter) bool {
		http.Error(w, "cut", http.StatusServiceUnavailable)
		return true
	})
	tl, err := load(url, mix{n: 2, c: 2, unique: 1, size: "small"}, signal)
	if err != nil {
		t.Fatal(err)
	}
	if !tl.signalled || tl.inflight != 1 || tl.answered != 0 {
		t.Fatalf("signalled %v, %d of %d in flight answered; want true, 0 of 1",
			tl.signalled, tl.answered, tl.inflight)
	}
}
