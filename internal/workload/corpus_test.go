package workload_test

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/workload"
)

// TestCorpusConcurrentDeterminism: generating corpus entries from many
// goroutines at once must produce the same programs as a sequential
// Corpus call — each entry owns a
// derived-seed rng, so there is no shared random state to race on or to
// leak ordering into. Run under -race this is also the regression test
// for generator thread safety.
func TestCorpusConcurrentDeterminism(t *testing.T) {
	const seed, n = 42, 24
	sequential := workload.Corpus(seed, n)
	if len(sequential) != n {
		t.Fatalf("Corpus returned %d entries, want %d", len(sequential), n)
	}

	concurrent := make([]workload.Workload, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			concurrent[i] = workload.CorpusEntry(seed, i)
		}(i)
	}
	wg.Wait()

	for i := range sequential {
		if sequential[i].Name != concurrent[i].Name || sequential[i].Src != concurrent[i].Src {
			t.Fatalf("entry %d differs between sequential and concurrent generation", i)
		}
	}
}

// TestDeriveSeedDecorrelates: derived seeds must differ across entries
// of one corpus and across adjacent base seeds — entries sharing a seed
// would silently shrink the stress surface.
func TestDeriveSeedDecorrelates(t *testing.T) {
	seen := make(map[int64]string)
	for base := int64(0); base < 8; base++ {
		for i := 0; i < 32; i++ {
			s := workload.DeriveSeed(base, i)
			if prev, dup := seen[s]; dup {
				t.Fatalf("DeriveSeed(%d, %d) collides with %s", base, i, prev)
			}
			seen[s] = fmt.Sprintf("DeriveSeed(%d, %d)", base, i)
		}
	}
	if workload.DeriveSeed(1, 0) == workload.DeriveSeed(2, 0) {
		t.Fatal("adjacent base seeds produced equal entry seeds")
	}
}
