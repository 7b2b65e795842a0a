package frontdoor

import (
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Limiter is a keyed token bucket: each key (a client or a tenant)
// refills continuously at rate tokens/second up to burst, so a key that
// exhausts its bucket collects 429s while every other key's latency
// holds. The key map is bounded: past maxKeys the stalest bucket of a
// small sample (the one refilled longest ago, i.e. a full, idle bucket)
// is dropped — which momentarily forgives an idle key, never a hot one.
// A nil *Limiter admits everything.
type Limiter struct {
	rate    float64 // tokens per second per key
	burst   float64
	maxKeys int

	mu      sync.Mutex
	buckets map[string]*bucket
	rng     *rand.Rand // jitter for Retry-After hints
}

type bucket struct {
	tokens float64
	last   time.Time
}

// MaxKeys is how many keys a limiter holds buckets for before it starts
// evicting.
const MaxKeys = 10_000

// NewLimiter builds a limiter; rate <= 0 disables limiting and returns
// nil. burst < 1 picks max(4, 2×rate).
func NewLimiter(rate float64, burst int) *Limiter {
	if rate <= 0 {
		return nil
	}
	if burst < 1 {
		burst = max(4, int(2*rate))
	}
	return &Limiter{
		rate:    rate,
		burst:   float64(burst),
		maxKeys: MaxKeys,
		buckets: make(map[string]*bucket),
		rng:     rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// Allow takes one token from key's bucket. When the bucket is empty it
// returns false and a jittered Retry-After hint: the base is the time
// until one token accrues, plus up to 50% random spread so a
// synchronized herd of limited clients does not return as a
// synchronized herd of retries.
func (l *Limiter) Allow(key string, now time.Time) (bool, time.Duration) {
	if l == nil {
		return true, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	b, ok := l.buckets[key]
	if !ok {
		if len(l.buckets) >= l.maxKeys {
			l.evictStalest()
		}
		b = &bucket{tokens: l.burst, last: now}
		l.buckets[key] = b
	}
	if elapsed := now.Sub(b.last).Seconds(); elapsed > 0 {
		b.tokens = min(l.burst, b.tokens+elapsed*l.rate)
		b.last = now
	}
	if b.tokens >= 1 {
		b.tokens--
		return true, 0
	}
	wait := time.Duration((1 - b.tokens) / l.rate * float64(time.Second))
	wait += time.Duration(l.rng.Float64() * 0.5 * float64(wait))
	return false, wait
}

// evictSample bounds how many buckets evictStalest inspects. A full
// scan is O(maxKeys) with the lock held, paid by every new key once
// the map is full — under key churn that turns admission into a
// quadratic stall. A small sample (map iteration starts at a random
// bucket, so repeated calls see different slices of the map) finds an
// old-enough victim with high probability at constant cost.
const evictSample = 32

// evictStalest drops the bucket refilled longest ago among a bounded
// random sample. Called with mu held.
func (l *Limiter) evictStalest() {
	var stalest string
	var oldest time.Time
	n := 0
	for k, b := range l.buckets {
		if n == 0 || b.last.Before(oldest) {
			stalest, oldest = k, b.last
		}
		if n++; n >= evictSample {
			break
		}
	}
	delete(l.buckets, stalest)
}

// Len reports how many buckets are live (metrics).
func (l *Limiter) Len() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.buckets)
}

// RetryAfter renders a Retry-After header value: whole seconds, rounded
// up so the hint is never an invitation to retry early.
func RetryAfter(d time.Duration) string {
	secs := int64(d / time.Second)
	if d%time.Second != 0 || secs == 0 {
		secs++
	}
	return strconv.FormatInt(secs, 10)
}

// ClientKey identifies the requester for limiting: the X-Client-ID
// header when present (trusted fronting proxies set it per tenant),
// else the remote host.
func ClientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	return Host(r.RemoteAddr)
}

// Host reduces a remote address to a per-host limiter key. Keying on
// the raw address — ephemeral port included — would hand every new
// connection a fresh bucket and make the limit trivially avoidable by
// reconnecting. The result is stable per host, which is what bucketing
// needs; exact host parsing is not required.
//
// Three shapes matter:
//   - "[::1]:8080", "[fe80::1%eth0]" — bracketed IPv6 (with or without
//     a port, with or without a zone): the key is the content of the
//     brackets, matching what net.SplitHostPort returns for the host.
//   - "10.0.0.1:8080", "host:123", "::1:40001" — a trailing ":<digits>"
//     run is treated as a port and stripped. For unbracketed IPv6 this
//     is ambiguous (the digits could be address bits), but the key only
//     needs to be stable per host, and stripping is what keeps
//     reconnects with fresh ephemeral ports in one bucket.
//   - "::1", "fe80::2" — portless IPv6 where the candidate "port" sits
//     right after a double colon: stripping would leave a prefix ending
//     in ":", so the address is returned unchanged.
func Host(addr string) string {
	if strings.HasPrefix(addr, "[") {
		if end := strings.IndexByte(addr, ']'); end > 0 {
			return addr[1:end]
		}
		return addr
	}
	i := strings.LastIndexByte(addr, ':')
	if i <= 0 || i == len(addr)-1 || addr[i-1] == ':' {
		return addr
	}
	for _, ch := range addr[i+1:] {
		if ch < '0' || ch > '9' {
			return addr
		}
	}
	return addr[:i]
}
