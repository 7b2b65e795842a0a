package workload

import (
	"math"
	"sort"
)

// Profile shapes a deterministic request mix: which of Unique distinct
// programs each request position visits. The mix derives entirely from
// (seed, profile fields), so two replays of one profile against
// equivalent servers issue identical traffic.
type Profile struct {
	// Unique is the number of distinct programs in the replay corpus.
	Unique int
	// ZipfS skews the request mix: program rank r is visited with
	// weight 1/(r+1)^ZipfS. 0 keeps the uniform MixIndexes mix. Larger
	// s concentrates traffic on a few hot keys — the adversarial case
	// for consistent hashing, which bounded-load spilling absorbs.
	ZipfS float64
}

// Mix returns the profile's deterministic request mix: a length-n
// sequence of program indexes in [0, Unique). With ZipfS == 0 it is
// the uniform MixIndexes mix; otherwise each position's index is drawn
// from a Zipf distribution over program ranks (program 0 hottest) by
// inverting the CDF with that position's own derived-seed uniform —
// so, like MixIndexes, the mix is independent of replay concurrency.
func (p Profile) Mix(seed int64, n int) []int {
	if p.ZipfS == 0 {
		return MixIndexes(seed, n, p.Unique)
	}
	unique := p.Unique
	if unique < 1 {
		unique = 1
	}
	// Cumulative Zipf weights over ranks: w_r = 1/(r+1)^s.
	cdf := make([]float64, unique)
	total := 0.0
	for r := 0; r < unique; r++ {
		total += 1 / math.Pow(float64(r+1), p.ZipfS)
		cdf[r] = total
	}
	if n < 0 {
		n = 0
	}
	mix := make([]int, n)
	for i := range mix {
		// 53 uniform bits from the position's derived seed.
		u := float64(uint64(DeriveSeed(seed, i))>>11) / (1 << 53)
		mix[i] = sort.SearchFloat64s(cdf, u*total)
		if mix[i] >= unique {
			mix[i] = unique - 1
		}
	}
	return mix
}
