package workload

import "fmt"

// ReplayCorpus generates the n distinct programs a load run (the
// serving drills, the benchmark's serve-hot workload) replays against
// the promotion service. It is the client-side twin of
// SizedCorpusEntry, which the benchmark's serve-cold corpus also draws
// from: the same derived-seed generation, so a server-side run over the
// same (seed, size) produces byte-identical sources and outcomes can be
// compared across processes and machines.
func ReplayCorpus(seed int64, n int, size string) ([]Workload, error) {
	if n < 1 {
		return nil, fmt.Errorf("workload: replay corpus needs n >= 1, got %d", n)
	}
	entries := make([]Workload, n)
	for i := range entries {
		w, err := SizedCorpusEntry(seed, i, size)
		if err != nil {
			return nil, err
		}
		entries[i] = w
	}
	return entries, nil
}

// MixIndexes returns the deterministic request mix of a load run: a
// length-n sequence of corpus indexes in [0, unique). Each position's
// index comes from its own DeriveSeed stream, so the mix is identical
// whatever concurrency the client replays it at, and every program is
// revisited roughly n/unique times — which is what gives a warmed
// result cache a predictable hit rate of about 1 - unique/n.
func MixIndexes(seed int64, n, unique int) []int {
	if n < 0 {
		n = 0
	}
	if unique < 1 {
		unique = 1
	}
	mix := make([]int, n)
	for i := range mix {
		mix[i] = int(uint64(DeriveSeed(seed, i)) % uint64(unique))
	}
	return mix
}
