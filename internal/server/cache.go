package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
)

// cachedOutcome is what the result cache stores per key: the marshaled
// stable outcome JSON and the canonical text report. Both are
// deterministic functions of (source, options) — the pipeline
// guarantees byte-identical results for identical inputs at any worker
// count — which is what makes serving them back for a different request
// with the same key sound.
type cachedOutcome struct {
	outcome []byte
	report  string
}

// size approximates the entry's memory footprint for the byte
// accounting.
func (c cachedOutcome) size() int { return len(c.outcome) + len(c.report) }

// marshal frames the entry as the disk tier's payload: an 8-byte
// big-endian outcome length, the outcome JSON, then the report text.
// (The disk store adds its own checksummed header on top; this framing
// only has to separate the two parts.)
func (c cachedOutcome) marshal() []byte {
	buf := make([]byte, 0, 8+c.size())
	buf = binary.BigEndian.AppendUint64(buf, uint64(len(c.outcome)))
	buf = append(buf, c.outcome...)
	return append(buf, c.report...)
}

// unmarshalOutcome decodes a disk payload back into an entry. The disk
// store has already checksum-verified the bytes; this only guards
// against framing from a buggy writer.
func unmarshalOutcome(b []byte) (cachedOutcome, error) {
	if len(b) < 8 {
		return cachedOutcome{}, fmt.Errorf("server: disk payload too short: %d bytes", len(b))
	}
	n := binary.BigEndian.Uint64(b[:8])
	if n > uint64(len(b)-8) {
		return cachedOutcome{}, fmt.Errorf("server: disk payload framing: outcome %d of %d bytes", n, len(b)-8)
	}
	return cachedOutcome{
		outcome: append([]byte(nil), b[8:8+n]...),
		report:  string(b[8+n:]),
	}, nil
}

// cacheKey derives the content address of one promotion request: the
// SHA-256 of the canonical JSON encoding of the resolved request
// options plus the source text. Resolved options (not the raw request
// body) go into the hash so that spellings that mean the same thing —
// an omitted algorithm and an explicit "ssa", a request timeout above
// the server ceiling and the ceiling itself — share an entry.
func cacheKey(src string, resolved resolvedOptions) string {
	canon, err := json.Marshal(resolved)
	if err != nil {
		// resolvedOptions is a fixed struct of scalars; Marshal cannot
		// fail on it.
		panic("server: marshal resolved options: " + err.Error())
	}
	h := sha256.New()
	h.Write(canon)
	h.Write([]byte{0})
	h.Write([]byte(src))
	return hex.EncodeToString(h.Sum(nil))
}

// lruCache is a size-bounded LRU over cached outcomes, safe for
// concurrent use. Capacity is bounded by entry count; Bytes reports the
// summed payload size for the metrics endpoint.
type lruCache struct {
	mu      sync.Mutex
	max     int
	bytes   int
	order   *list.List // front = most recently used
	entries map[string]*list.Element
}

type lruEntry struct {
	key string
	val cachedOutcome
}

// newLRUCache returns a cache bounded to max (>= 1) entries.
func newLRUCache(max int) *lruCache {
	return &lruCache{
		max:     max,
		order:   list.New(),
		entries: make(map[string]*list.Element),
	}
}

// Get returns the cached outcome for key, marking it most recently
// used.
func (c *lruCache) Get(key string) (cachedOutcome, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		return cachedOutcome{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).val, true
}

// Put inserts (or refreshes) key and returns how many entries were
// evicted to stay within capacity.
func (c *lruCache) Put(key string, val cachedOutcome) (evicted int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		ent := el.Value.(*lruEntry)
		c.bytes += val.size() - ent.val.size()
		ent.val = val
		c.order.MoveToFront(el)
		return 0
	}
	c.entries[key] = c.order.PushFront(&lruEntry{key: key, val: val})
	c.bytes += val.size()
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		ent := oldest.Value.(*lruEntry)
		c.order.Remove(oldest)
		delete(c.entries, ent.key)
		c.bytes -= ent.val.size()
		evicted++
	}
	return evicted
}

// Len returns the number of cached entries.
func (c *lruCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// Bytes returns the summed payload size of all cached entries.
func (c *lruCache) Bytes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}
