// Package router is the cluster front door for a fleet of rpserved
// replicas: one HTTP endpoint that places each promotion request on a
// replica by its content-addressed cache key.
//
// Placement is a consistent-hash ring with bounded-load overflow:
//
//   - Consistent hashing: each replica owns many pseudo-random points
//     ("virtual nodes") on a 64-bit ring; a key is served by the first
//     replica point at or after its own hash. Adding or removing one
//     replica moves only the keys the changed replica owns (~K/N of
//     them) — every other key keeps its placement, and with it the
//     replica whose caches it already warmed.
//   - Bounded load: a pure hash ring sends a hot key's entire load to
//     one replica. When the primary's in-flight count exceeds its fair
//     share (1.25 times the cluster average), the
//     request spills to the next replica on the ring — a deterministic
//     overflow target whose disk cache warms for exactly the keys it
//     absorbs, instead of a random scatter.
//
// The same purity property that makes caching sound — outcomes are
// functions of (source, options) alone — is what makes all of this
// correct: any replica can serve any key, so placement is purely a
// performance decision and spilling or rebalancing can never change an
// answer.
package router

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
)

// Ring is an immutable consistent-hash ring over a set of node names.
// Routers rebuild the ring (cheap, O(nodes·vnodes·log)) whenever
// replica health changes; lookups are lock-free on the ring value.
type Ring struct {
	vnodes int
	nodes  []string // sorted, deduped
	points []point  // sorted by hash
}

type point struct {
	hash uint64
	node int32 // index into nodes
}

// NewRing builds a ring over nodes with vnodes virtual points per node
// (vnodes <= 0 picks 128). Node order does not matter: the ring is a
// pure function of the node *set*, so two routers configured with the
// same replicas in any order place every key identically.
func NewRing(nodes []string, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = 128
	}
	uniq := make([]string, 0, len(nodes))
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if !seen[n] {
			seen[n] = true
			uniq = append(uniq, n)
		}
	}
	sort.Strings(uniq)
	r := &Ring{
		vnodes: vnodes,
		nodes:  uniq,
		points: make([]point, 0, len(uniq)*vnodes),
	}
	for ni, n := range uniq {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, point{
				hash: hashString(n + "#" + strconv.Itoa(v)),
				node: int32(ni),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break on node index so equal hashes (vanishingly rare but
		// possible) still order deterministically.
		return r.points[i].node < r.points[j].node
	})
	return r
}

// Nodes returns the ring's node set in sorted order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// Len returns the number of nodes.
func (r *Ring) Len() int { return len(r.nodes) }

// Lookup returns the primary node for key, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	seq := r.Sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// Sequence returns up to max distinct nodes in ring-walk order starting
// at key's point: the primary first, then each successive overflow
// target. max <= 0 returns every node. The order is deterministic per
// key, which is what makes bounded-load spill predictable — a hot key
// always overflows to the same successor, whose cache then stays warm
// for it.
func (r *Ring) Sequence(key string, max int) []string {
	if len(r.points) == 0 {
		return nil
	}
	if max <= 0 || max > len(r.nodes) {
		max = len(r.nodes)
	}
	h := hashString(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, max)
	taken := make(map[int32]bool, max)
	for i := 0; i < len(r.points) && len(out) < max; i++ {
		p := r.points[(start+i)%len(r.points)]
		if !taken[p.node] {
			taken[p.node] = true
			out = append(out, r.nodes[p.node])
		}
	}
	return out
}

// hashString is 64-bit FNV-1a followed by murmur3's fmix64 finalizer.
// FNV alone is fast and dependency-free but avalanches poorly on the
// short, nearly identical vnode labels ("127.0.0.1:41006#17"): for
// some replica port pairs the points cluster and one replica owns a
// few percent of the ring. The finalizer spreads every input bit over
// the whole word, which makes the point layout uniform for any labels.
func hashString(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	k := h.Sum64()
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

// LoadBound computes the bounded-load ceiling for one replica: a
// loadFactor multiple of the cluster-average in-flight count, never
// below minBound so a near-idle cluster doesn't spill on its first
// concurrent burst. totalInflight counts the request being placed.
func LoadBound(loadFactor float64, totalInflight, healthy, minBound int) int {
	if healthy < 1 {
		healthy = 1
	}
	if loadFactor < 1 {
		loadFactor = 1
	}
	avg := float64(totalInflight) / float64(healthy)
	bound := int(loadFactor*avg + 0.999999) // ceil
	if bound < minBound {
		bound = minBound
	}
	return bound
}

// String renders the ring for diagnostics.
func (r *Ring) String() string {
	return fmt.Sprintf("ring(%d nodes, %d vnodes)", len(r.nodes), r.vnodes)
}
