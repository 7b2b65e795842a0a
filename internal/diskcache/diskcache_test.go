package diskcache

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"repro/internal/faults"
)

func mustOpen(t *testing.T, root string, maxBytes int64, chaos *faults.DiskInjector) *Store {
	t.Helper()
	s, err := Open(root, maxBytes, chaos)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func key(i int) string { return fmt.Sprintf("%02x%062x", i%256, i) }

// TestPutGetRoundTrip checks basic storage plus the not-found path.
func TestPutGetRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0, nil)
	payload := []byte("outcome bytes")
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(key(1))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if _, err := s.Get(key(2)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing key: %v, want ErrNotFound", err)
	}
	if st := s.Stats(); st.Entries != 1 || st.Bytes <= 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Re-putting the same key is a refresh, not a second entry.
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Entries != 1 {
		t.Fatalf("after re-put: %+v", st)
	}
}

// TestPutSyncsVersionDirOnNewShard checks Put fsyncs the version
// directory exactly when it creates a shard, and the shard directory
// for every new entry: a shard not yet recorded in v1/ could vanish in
// a crash together with every entry renamed into it.
func TestPutSyncsVersionDirOnNewShard(t *testing.T) {
	var synced []string
	s := mustOpen(t, t.TempDir(), 0, nil)
	s.syncDir = func(dir string) {
		synced = append(synced, dir)
		fsyncDir(dir)
	}
	shard := func(k string) string { return filepath.Dir(s.path(k)) }
	for i, tc := range []struct {
		key  string
		want []string
	}{
		{key(1), []string{s.dir, shard(key(1))}}, // creates shard 01
		{key(257), []string{shard(key(257))}},    // shard 01 exists
		{key(2), []string{s.dir, shard(key(2))}}, // creates shard 02
		{key(1), nil},                            // existing entry: recency refresh only
	} {
		synced = nil
		if err := s.Put(tc.key, []byte("payload")); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(synced, tc.want) {
			t.Fatalf("put %d (%s): synced %q, want %q", i, tc.key[:2], synced, tc.want)
		}
	}
}

// TestReopenWarm checks a new Store over the same root serves entries
// written by the previous one and rebuilds the size accounting — the
// warm-restart property the serving layer depends on.
func TestReopenWarm(t *testing.T) {
	root := t.TempDir()
	s1 := mustOpen(t, root, 0, nil)
	payload := []byte("survives restart")
	if err := s1.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	want := s1.Stats()

	s2 := mustOpen(t, root, 0, nil)
	got, err := s2.Get(key(1))
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("after reopen: Get = %q, %v", got, err)
	}
	if st := s2.Stats(); st.Entries != want.Entries || st.Bytes != want.Bytes {
		t.Fatalf("reopened stats %+v, want %+v", st, want)
	}
}

// TestOpenSweepsTempFiles checks stranded temp files from a crashed
// writer are removed on Open and never visible as entries.
func TestOpenSweepsTempFiles(t *testing.T) {
	root := t.TempDir()
	s1 := mustOpen(t, root, 0, nil)
	stale := filepath.Join(s1.tmpDir, "deadbeef.123.1")
	if err := os.WriteFile(stale, []byte("torn write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := mustOpen(t, root, 0, nil)
	if _, err := os.Stat(stale); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("stale temp file survived reopen: %v", err)
	}
	if st := s2.Stats(); st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("temp file counted as entry: %+v", st)
	}
}

// corruptEntry mangles the stored file for key with fn.
func corruptEntry(t *testing.T, s *Store, key string, fn func([]byte) []byte) {
	t.Helper()
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(p, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCorruptionQuarantine checks both truncated and bit-flipped
// entries fail verification, land in bad/, and leave the store serving
// ErrNotFound (a clean miss) afterwards.
func TestCorruptionQuarantine(t *testing.T) {
	cases := []struct {
		name string
		fn   func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"bitflip", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-1] ^= 0x40
			return c
		}},
		{"badmagic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir(), 0, nil)
			if err := s.Put(key(1), []byte("precious bytes")); err != nil {
				t.Fatal(err)
			}
			corruptEntry(t, s, key(1), tc.fn)

			if _, err := s.Get(key(1)); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("corrupt entry: %v, want ErrCorrupt", err)
			}
			if _, err := os.Stat(filepath.Join(s.badDir, key(1))); err != nil {
				t.Fatalf("quarantine file missing: %v", err)
			}
			if _, err := s.Get(key(1)); !errors.Is(err, ErrNotFound) {
				t.Fatalf("after quarantine: %v, want ErrNotFound", err)
			}
			st := s.Stats()
			if st.Quarantined != 1 || st.Entries != 0 {
				t.Fatalf("stats after quarantine: %+v", st)
			}
			// The store recovers: the key can be written and read again.
			if err := s.Put(key(1), []byte("recomputed bytes")); err != nil {
				t.Fatal(err)
			}
			if got, err := s.Get(key(1)); err != nil || string(got) != "recomputed bytes" {
				t.Fatalf("recovery Get = %q, %v", got, err)
			}
		})
	}
}

// TestGCEvictsLRUByRecency fills past the byte budget and checks GC
// drops the least recently touched entries first — including recency
// granted by Get, not just Put.
func TestGCEvictsLRUByRecency(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 0, nil)
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes so LRU order is unambiguous on coarse clocks.
		old := time.Now().Add(time.Duration(i-20) * time.Hour)
		if err := os.Chtimes(s.path(key(i)), old, old); err != nil {
			t.Fatal(err)
		}
	}
	// Touch the oldest entry via Get: it must survive the GC.
	if _, err := s.Get(key(0)); err != nil {
		t.Fatal(err)
	}

	entrySize := int64(headerSize + len(payload))
	s.maxBytes = 4 * entrySize
	s.GC()

	st := s.Stats()
	if st.Bytes > s.maxBytes {
		t.Fatalf("after GC: %d bytes > budget %d", st.Bytes, s.maxBytes)
	}
	if st.Entries != 4 || st.Evicted != 6 {
		t.Fatalf("after GC: %+v, want 4 entries / 6 evicted", st)
	}
	if _, err := s.Get(key(0)); err != nil {
		t.Fatalf("recently read entry evicted: %v", err)
	}
	for _, i := range []int{1, 2, 3} {
		if _, err := s.Get(key(i)); !errors.Is(err, ErrNotFound) {
			t.Fatalf("old entry %d: %v, want ErrNotFound", i, err)
		}
	}
}

// TestBackgroundGCTriggersOnPut checks the automatic pass fires when a
// Put pushes the store over budget.
func TestBackgroundGCTriggersOnPut(t *testing.T) {
	payload := bytes.Repeat([]byte("y"), 200)
	entrySize := int64(headerSize + len(payload))
	s := mustOpen(t, t.TempDir(), 3*entrySize, nil)
	for i := 0; i < 8; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st := s.Stats(); st.Bytes <= s.maxBytes && !s.gcBusy() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("store never shrank to budget: %+v", s.Stats())
}

func (s *Store) gcBusy() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gcRunning
}

// TestInjectedFaultsDegradeCleanly checks chaos-injected read, write,
// and checksum failures surface as errors (miss semantics) without ever
// corrupting a stored entry or tearing a write.
func TestInjectedFaultsDegradeCleanly(t *testing.T) {
	root := t.TempDir()
	payload := []byte("chaos payload")

	// Write faults: a failed Put leaves nothing behind.
	s := mustOpen(t, root, 0, faults.NewDisk(faults.DiskPlan{WriteErr: 1}))
	if err := s.Put(key(1), payload); !errors.Is(err, faults.ErrInjectedDisk) {
		t.Fatalf("Put under write fault = %v, want injected error", err)
	}
	if _, err := s.Get(key(1)); !errors.Is(err, ErrNotFound) {
		t.Fatalf("failed Put left state: %v", err)
	}
	if st := s.Stats(); st.WriteErrors != 1 || st.Entries != 0 {
		t.Fatalf("stats after write fault: %+v", st)
	}

	// Read faults: the entry stays intact, later reads succeed.
	s = mustOpen(t, root, 0, faults.NewDisk(faults.DiskPlan{ReadErr: 1}))
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key(1)); !errors.Is(err, faults.ErrInjectedDisk) {
		t.Fatalf("Get under read fault = %v, want injected error", err)
	}
	s.chaos = nil
	if got, err := s.Get(key(1)); err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("entry damaged by injected read fault: %q, %v", got, err)
	}

	// Checksum faults: the healthy entry is sacrificed to the
	// quarantine path — the caller sees ErrCorrupt, never wrong bytes.
	s = mustOpen(t, t.TempDir(), 0, faults.NewDisk(faults.DiskPlan{ChecksumErr: 1}))
	if err := s.Put(key(2), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key(2)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get under checksum fault = %v, want ErrCorrupt", err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats after checksum fault: %+v", st)
	}
}

// TestConcurrentPutGet exercises the store from the race detector's
// point of view: concurrent writers and readers over a small keyspace
// with a tight GC budget.
func TestConcurrentPutGet(t *testing.T) {
	s := mustOpen(t, t.TempDir(), 2048, nil)
	payload := bytes.Repeat([]byte("z"), 64)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func(g int) {
			defer func() { done <- struct{}{} }()
			for i := 0; i < 100; i++ {
				k := key((g*31 + i) % 16)
				if i%2 == 0 {
					if err := s.Put(k, payload); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				} else if got, err := s.Get(k); err == nil && !bytes.Equal(got, payload) {
					t.Errorf("Get returned wrong bytes")
					return
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		<-done
	}
}

// TestQuarantineBudgetAndExpiry pins the full lifecycle of quarantined
// evidence: its bytes count against the budget (and survive reopen),
// GC sacrifices it before any live entry, and it expires on TTL even
// when the store is under budget.
func TestQuarantineBudgetAndExpiry(t *testing.T) {
	root := t.TempDir()
	payload := bytes.Repeat([]byte("q"), 100)
	entrySize := int64(headerSize + len(payload))

	// Quarantine three entries via injected checksum faults.
	s := mustOpen(t, root, 0, faults.NewDisk(faults.DiskPlan{ChecksumErr: 1}))
	for i := 0; i < 3; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Get(key(i)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("entry %d: %v, want ErrCorrupt", i, err)
		}
	}
	if st := s.Stats(); st.QuarantineBytes != 3*entrySize || st.Entries != 0 || st.Bytes != 0 {
		t.Fatalf("after quarantines: %+v, want %d quarantine bytes", st, 3*entrySize)
	}

	// A fresh Store over the same root rebuilds the accounting from
	// bad/ — quarantined space must not become invisible on restart.
	s = mustOpen(t, root, 0, nil)
	if st := s.Stats(); st.QuarantineBytes != 3*entrySize {
		t.Fatalf("after reopen: %+v, want %d quarantine bytes", st, 3*entrySize)
	}

	// Fill with live entries until live alone consumes the budget:
	// GC must clear all quarantined files and evict zero live ones.
	for i := 4; i < 8; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	s.maxBytes = 4 * entrySize
	s.GC()
	st := s.Stats()
	if st.QuarantineBytes != 0 {
		t.Fatalf("quarantined evidence survived budget pressure: %+v", st)
	}
	if st.Entries != 4 || st.Evicted != 0 {
		t.Fatalf("live entries paid for quarantine: %+v, want 4 entries / 0 evicted", st)
	}
	if files, err := os.ReadDir(s.badDir); err != nil || len(files) != 0 {
		t.Fatalf("bad/ not emptied: %d files, %v", len(files), err)
	}

	// TTL expiry fires even with no budget pressure at all.
	s = mustOpen(t, t.TempDir(), 0, faults.NewDisk(faults.DiskPlan{ChecksumErr: 1}))
	if err := s.Put(key(1), payload); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Get(key(1)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get = %v, want ErrCorrupt", err)
	}
	old := time.Now().Add(-quarantineTTL - time.Hour)
	if err := os.Chtimes(filepath.Join(s.badDir, key(1)), old, old); err != nil {
		t.Fatal(err)
	}
	s.GC()
	if st := s.Stats(); st.QuarantineBytes != 0 {
		t.Fatalf("expired quarantine entry still counted: %+v", st)
	}
	if files, _ := os.ReadDir(s.badDir); len(files) != 0 {
		t.Fatalf("expired quarantine file survived GC")
	}
}

// TestQuarantineTriggersGC checks that quarantining itself kicks the
// background GC when the move pushes total usage over budget — the bug
// this guards against let bad/ grow without bound because only Put
// looked at the budget, and only at live bytes.
func TestQuarantineTriggersGC(t *testing.T) {
	payload := bytes.Repeat([]byte("g"), 200)
	entrySize := int64(headerSize + len(payload))
	s := mustOpen(t, t.TempDir(), 2*entrySize, faults.NewDisk(faults.DiskPlan{ChecksumErr: 1}))
	for i := 0; i < 2; i++ {
		if err := s.Put(key(i), payload); err != nil {
			t.Fatal(err)
		}
	}
	// Quarantining both entries leaves live == 0 but bad/ at budget;
	// the third Put overflows and GC must claw back quarantine space.
	for i := 0; i < 2; i++ {
		if _, err := s.Get(key(i)); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("entry %d: %v, want ErrCorrupt", i, err)
		}
	}
	s.chaos = nil
	if err := s.Put(key(3), payload); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Bytes+st.QuarantineBytes <= s.maxBytes && !s.gcBusy() {
			if _, err := s.Get(key(3)); err != nil {
				t.Fatalf("live entry sacrificed before quarantine space: %v", err)
			}
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("store never shrank below budget: %+v", s.Stats())
}
