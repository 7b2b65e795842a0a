package frontdoor

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"
)

// TestLimiter is the shared limiter's table: refill and burst, per-key
// isolation and jittered Retry-After hints as step scripts, then key-map
// eviction under churn and the remote-address shapes keys derive from.
func TestLimiter(t *testing.T) {
	type step struct {
		key  string
		at   time.Duration // offset from the script's start
		ok   bool
		wait time.Duration // base Retry-After wait of a rejection
	}
	cases := []struct {
		name  string
		rate  float64
		burst int
		steps []step
	}{
		{"burst then reject", 1, 3, []step{
			{"a", 0, true, 0}, {"a", 0, true, 0}, {"a", 0, true, 0},
			{"a", 0, false, time.Second},
		}},
		{"default burst is max(4, 2×rate)", 1, 0, []step{
			{"a", 0, true, 0}, {"a", 0, true, 0}, {"a", 0, true, 0}, {"a", 0, true, 0},
			{"a", 0, false, time.Second},
		}},
		{"refill at rate", 4, 1, []step{
			{"c", 0, true, 0},
			{"c", 0, false, 250 * time.Millisecond},
			{"c", 125 * time.Millisecond, false, 125 * time.Millisecond}, // half a token accrued
			{"c", 250 * time.Millisecond, true, 0},
			{"c", 250 * time.Millisecond, false, 250 * time.Millisecond},
		}},
		{"refill capped at burst", 10, 2, []step{
			{"a", 0, true, 0}, {"a", 0, true, 0},
			{"a", time.Hour, true, 0}, {"a", time.Hour, true, 0},
			{"a", time.Hour, false, 100 * time.Millisecond},
		}},
		{"keys isolated", 1, 1, []step{
			{"greedy", 0, true, 0},
			{"greedy", 0, false, time.Second},
			{"polite", 0, true, 0},
			{"greedy", 0, false, time.Second},
		}},
		{"disabled admits everything", 0, 1, []step{
			{"a", 0, true, 0}, {"a", 0, true, 0}, {"a", 0, true, 0},
		}},
	}
	t0 := time.Now()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l := NewLimiter(tc.rate, tc.burst)
			for i, s := range tc.steps {
				ok, retry := l.Allow(s.key, t0.Add(s.at))
				if ok != s.ok {
					t.Fatalf("step %d (%s at %v): allowed=%v, want %v", i, s.key, s.at, ok, s.ok)
				}
				if ok {
					if retry != 0 {
						t.Fatalf("step %d: admitted with retry hint %v", i, retry)
					}
					continue
				}
				// Jitter adds at most half the base wait, never less.
				if retry < s.wait || retry > s.wait*3/2 {
					t.Fatalf("step %d: retry %v outside [%v, %v]", i, retry, s.wait, s.wait*3/2)
				}
				if secs, err := strconv.Atoi(RetryAfter(retry)); err != nil || secs < 1 {
					t.Fatalf("step %d: Retry-After %q, want whole seconds >= 1", i, RetryAfter(retry))
				}
			}
		})
	}

	t.Run("retry-after rounds up to whole seconds", func(t *testing.T) {
		for d, want := range map[time.Duration]string{
			0:                                     "1",
			10 * time.Millisecond:                 "1",
			time.Second:                           "1",
			time.Second + time.Nanosecond:         "2",
			2500 * time.Millisecond:               "3",
			3 * time.Second:                       "3",
			3*time.Second + time.Millisecond:      "4",
			59*time.Second + 999*time.Millisecond: "60",
		} {
			if got := RetryAfter(d); got != want {
				t.Errorf("RetryAfter(%v) = %q, want %q", d, got, want)
			}
		}
	})

	// Ten times the key cap churns through: the map stays bounded, and
	// the sampled eviction never drops a key that is in active use.
	t.Run("eviction bounded under churn", func(t *testing.T) {
		l := NewLimiter(1, 1)
		l.maxKeys = 100
		for i := 0; i < l.maxKeys; i++ {
			l.Allow("old-"+strconv.Itoa(i), t0)
		}
		for i := 0; i < 10*l.maxKeys; i++ {
			now := t0.Add(time.Hour + time.Duration(i)*time.Millisecond)
			l.Allow("churn-"+strconv.Itoa(i), now)
			l.Allow("hot", now)
			if got := l.Len(); got > l.maxKeys {
				t.Fatalf("after %d churn keys: %d buckets, want <= %d", i+1, got, l.maxKeys)
			}
		}
		if _, ok := l.buckets["hot"]; !ok {
			t.Fatal("the key in active use was evicted")
		}
	})

	// The key shapes a remote address reduces to: one bucket per host,
	// whatever the ephemeral port.
	t.Run("address keys", func(t *testing.T) {
		for _, c := range []struct{ addr, want string }{
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
			{"[2001:db8::7]", "2001:db8::7"},    // agrees with net.SplitHostPort's host
			{"::1", "::1"},                      // portless; must not become ":"
			{"fe80::2", "fe80::2"},              // candidate port right after "::"
			{"2001:db8::5:8080", "2001:db8::5"}, // ambiguous; stripped for stability
			{"::1:40001", "::1"},
			{"unix-socket", "unix-socket"},
		} {
			if got := Host(c.addr); got != c.want {
				t.Errorf("Host(%q) = %q, want %q", c.addr, got, c.want)
			}
		}
		for _, p := range [][2]string{
			{"10.0.0.1:1111", "10.0.0.1:2222"},
			{"[::1]:1111", "[::1]:2222"},
			{"[fe80::1%eth0]:1111", "[fe80::1%eth0]:2222"},
			{"::1:1111", "::1:2222"},
		} {
			if a, b := Host(p[0]), Host(p[1]); a != b {
				t.Errorf("keys differ across ports: %q -> %q vs %q -> %q", p[0], a, p[1], b)
			}
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/promote", nil)
		r.RemoteAddr = "10.1.2.3:40001"
		if got := ClientKey(r); got != "10.1.2.3" {
			t.Errorf("ClientKey without header = %q, want 10.1.2.3", got)
		}
		r.Header.Set("X-Client-ID", "tenant-7")
		if got := ClientKey(r); got != "tenant-7" {
			t.Errorf("ClientKey with header = %q, want tenant-7", got)
		}
	})
}
