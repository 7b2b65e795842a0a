package workload

import "testing"

// TestReplayCorpusMatchesCorpusEntries checks the client-side replay
// corpus is byte-identical to SizedCorpusEntry's entries.
func TestReplayCorpusMatchesCorpusEntries(t *testing.T) {
	entries, err := ReplayCorpus(7, 5, "small")
	if err != nil {
		t.Fatal(err)
	}
	for i, w := range entries {
		want, err := SizedCorpusEntry(7, i, "small")
		if err != nil {
			t.Fatal(err)
		}
		if w.Src != want.Src || w.Name != want.Name {
			t.Fatalf("entry %d differs from SizedCorpusEntry", i)
		}
	}
	if _, err := ReplayCorpus(7, 0, "small"); err == nil {
		t.Fatal("ReplayCorpus(n=0) succeeded, want error")
	}
	if _, err := ReplayCorpus(7, 1, "galactic"); err == nil {
		t.Fatal("ReplayCorpus with unknown size succeeded, want error")
	}
}

// TestMixIndexesDeterministicAndCovering checks the mix is stable
// across calls, in range, and touches every program for a reasonable
// n/unique ratio.
func TestMixIndexesDeterministicAndCovering(t *testing.T) {
	const n, unique = 64, 4
	a := MixIndexes(3, n, unique)
	b := MixIndexes(3, n, unique)
	if len(a) != n {
		t.Fatalf("len = %d, want %d", len(a), n)
	}
	seen := make(map[int]bool)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("mix differs between calls at %d: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= unique {
			t.Fatalf("mix[%d] = %d out of [0, %d)", i, a[i], unique)
		}
		seen[a[i]] = true
	}
	if len(seen) != unique {
		t.Fatalf("mix covered %d of %d programs", len(seen), unique)
	}
	if other := MixIndexes(4, n, unique); equalInts(a, other) {
		t.Fatal("different seeds produced the same mix")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
