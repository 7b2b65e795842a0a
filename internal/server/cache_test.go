package server

import (
	"fmt"
	"testing"
)

func entry(s string) cachedOutcome {
	return cachedOutcome{outcome: []byte(s), report: "r:" + s}
}

// TestLRUEvictsLeastRecentlyUsed checks capacity is enforced in
// recency order and that Get refreshes recency.
func TestLRUEvictsLeastRecentlyUsed(t *testing.T) {
	c := newLRUCache(2)
	if c.Put("a", entry("A")) != 0 || c.Put("b", entry("B")) != 0 {
		t.Fatal("puts within capacity evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a missing")
	}
	// a is now most recent; inserting c must evict b.
	if n := c.Put("c", entry("C")); n != 1 {
		t.Fatalf("evicted %d entries, want 1", n)
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived eviction, want a to survive instead")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted, want b evicted")
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
}

// TestLRURefreshAndBytes checks refreshing a key keeps one entry and
// the byte accounting follows payload sizes.
func TestLRURefreshAndBytes(t *testing.T) {
	c := newLRUCache(4)
	c.Put("k", entry("small"))
	before := c.Bytes()
	c.Put("k", entry("a much larger payload than before"))
	if c.Len() != 1 {
		t.Fatalf("Len = %d after refresh, want 1", c.Len())
	}
	if c.Bytes() <= before {
		t.Fatalf("Bytes = %d after growing refresh, want > %d", c.Bytes(), before)
	}
	got, ok := c.Get("k")
	if !ok || string(got.outcome) != "a much larger payload than before" {
		t.Fatalf("Get returned %q, %v", got.outcome, ok)
	}
}

// TestCacheKeySensitivity checks the content address covers both the
// source and every resolved option, and nothing else.
func TestCacheKeySensitivity(t *testing.T) {
	base := resolvedOptions{Algorithm: "ssa", Check: "off", Workers: 1, MaxSteps: 100, TimeoutMS: 50}
	k := cacheKey("void main() {}", base)
	if k != cacheKey("void main() {}", base) {
		t.Fatal("identical inputs hash differently")
	}
	if k == cacheKey("void main() { print(1); }", base) {
		t.Fatal("different sources share a key")
	}
	variants := []resolvedOptions{
		{Algorithm: "none", Check: "off", Workers: 1, MaxSteps: 100, TimeoutMS: 50},
		{Algorithm: "ssa", Check: "paranoid", Workers: 1, MaxSteps: 100, TimeoutMS: 50},
		{Algorithm: "ssa", Check: "off", Workers: 2, MaxSteps: 100, TimeoutMS: 50},
		{Algorithm: "ssa", Check: "off", Workers: 1, MaxSteps: 101, TimeoutMS: 50},
		{Algorithm: "ssa", Check: "off", Workers: 1, MaxSteps: 100, TimeoutMS: 51},
		{Algorithm: "ssa", Check: "off", Workers: 1, MaxSteps: 100, TimeoutMS: 50, SkipMeasurement: true},
		{Algorithm: "ssa", Check: "off", Workers: 1, MaxSteps: 100, TimeoutMS: 50, StaticProfile: true},
	}
	for i, v := range variants {
		if cacheKey("void main() {}", v) == k {
			t.Fatalf("variant %d shares the base key: %+v", i, v)
		}
	}
}

// TestLRUStress exercises the cache from the race detector's point of
// view: concurrent gets and puts over a small keyspace.
func TestLRUStress(t *testing.T) {
	c := newLRUCache(8)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", (g*7+i)%16)
				if i%3 == 0 {
					c.Put(key, entry(key))
				} else {
					c.Get(key)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	if c.Len() > 8 {
		t.Fatalf("Len = %d exceeds capacity 8", c.Len())
	}
}
