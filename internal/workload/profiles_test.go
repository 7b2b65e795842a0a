package workload

import "testing"

func TestProfileMixUniformMatchesMixIndexes(t *testing.T) {
	p := Profile{Unique: 8}
	mix := p.Mix(3, 64)
	want := MixIndexes(3, 64, 8)
	for i := range mix {
		if mix[i] != want[i] {
			t.Fatalf("uniform profile mix diverges from MixIndexes at %d: %d vs %d", i, mix[i], want[i])
		}
	}
}

func TestProfileMixZipfSkew(t *testing.T) {
	p := Profile{Unique: 32, ZipfS: 1.2}
	mix := p.Mix(7, 4096)
	counts := make([]int, 32)
	for _, idx := range mix {
		if idx < 0 || idx >= 32 {
			t.Fatalf("mix index %d out of range", idx)
		}
		counts[idx]++
	}
	// Rank 0 must dominate and the top 4 ranks must take a majority —
	// the defining property of a hot-key distribution.
	if counts[0] <= counts[16] {
		t.Errorf("rank 0 (%d) not hotter than rank 16 (%d)", counts[0], counts[16])
	}
	top4 := counts[0] + counts[1] + counts[2] + counts[3]
	if top4 <= len(mix)/2 {
		t.Errorf("top-4 ranks took %d of %d requests; expected a majority", top4, len(mix))
	}

	// Determinism: same seed, same mix; different seed, different mix.
	again := p.Mix(7, 4096)
	for i := range mix {
		if mix[i] != again[i] {
			t.Fatalf("zipf mix not deterministic at position %d", i)
		}
	}
	other := p.Mix(8, 4096)
	same := 0
	for i := range mix {
		if mix[i] == other[i] {
			same++
		}
	}
	if same == len(mix) {
		t.Error("different seeds produced an identical zipf mix")
	}
}
