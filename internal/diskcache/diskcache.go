// Package diskcache is a durable content-addressed store: the cold tier
// below the serving layer's in-memory result cache. Entries are keyed
// by the same SHA-256 content address the memory tier uses and live as
// individual files under a format-version directory, so a restarted
// replica comes back warm and a future format change is a new directory
// rather than a migration.
//
// The durability contract is the paper's own invariant turned into a
// storage rule: a promotion outcome is a pure function of (source,
// resolved options), so the store must either return the exact bytes
// that were written or admit it cannot — never plausible-but-wrong
// bytes. Concretely:
//
//   - Writes are atomic: payloads go to a temp file in the same
//     filesystem, are fsynced, and are renamed into place. A crash at
//     any instant leaves either the old state or the new state, never a
//     torn entry. Stale temp files are swept on Open.
//   - An entry is durable once Put returns: after the rename Put fsyncs
//     the shard directory, and when it created the shard, the version
//     directory too. The serving layer calls Put from one writer
//     goroutine behind the response and flushes that writer's queue
//     on drain, so a crash loses at most the queued entries — and since
//     an entry is a pure function of its key, losing one costs only
//     its recomputation.
//   - Reads verify: every entry carries a header with a magic tag,
//     payload length, and payload SHA-256. A mismatch (truncation, bit
//     flip, partial write that somehow survived) quarantines the file
//     into a bad/ subdirectory and reports ErrCorrupt — the caller
//     degrades to a recompute; the operator keeps the evidence.
//   - Size is bounded: when the store exceeds its byte budget a
//     background GC evicts entries least-recently-used first (read
//     hits re-stamp the file mtime, so recency survives restarts too).
//     Quarantined evidence counts against the same budget, is evicted
//     before any live entry, and expires outright after a TTL — bad/
//     is a holding pen, not a leak.
//
// A *faults.DiskInjector can be plugged in to drive the degraded paths
// deterministically: injected read/write failures surface as errors
// (the caller treats them as misses), injected checksum faults force
// the quarantine path, and slow-IO adds latency — the knobs the chaos
// harness turns.
package diskcache

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// FormatVersion names the on-disk layout. Entries live under
// <root>/v<FormatVersion>/; bumping it orphans (never misreads) old
// entries.
const FormatVersion = 1

// magic tags every entry file. The final byte is the format version, so
// a file from a future layout fails fast as corrupt rather than being
// half-parsed.
var magic = []byte{'R', 'P', 'D', 'C', FormatVersion}

// headerSize is magic + 32-byte payload SHA-256 + 8-byte payload length.
const headerSize = len("RPDC*") + sha256.Size + 8

// quarantineTTL bounds how long quarantined evidence is kept. A bad
// entry exists for the operator to inspect; after a week it is noise
// occupying budget, and GC removes it even when the store is under
// budget.
const quarantineTTL = 7 * 24 * time.Hour

var (
	// ErrNotFound reports a key with no entry.
	ErrNotFound = errors.New("diskcache: entry not found")
	// ErrCorrupt reports an entry that failed verification and was
	// quarantined. The caller should treat it as a miss and recompute.
	ErrCorrupt = errors.New("diskcache: entry corrupt (quarantined)")
)

// Store is one on-disk cache instance. All methods are safe for
// concurrent use.
type Store struct {
	dir      string // <root>/v1
	tmpDir   string // <root>/v1/tmp — same filesystem, so rename is atomic
	badDir   string // <root>/v1/bad — quarantined entries
	maxBytes int64  // GC budget; <= 0 means unbounded
	chaos    *faults.DiskInjector
	syncDir  func(dir string) // fsyncDir; tests observe the calls through it

	shardMu sync.Mutex // orders shard creation (see mkShard)

	mu        sync.Mutex
	bytes     int64 // payload + header bytes of live entries (approximate under races, re-trued by GC)
	badBytes  int64 // bytes held by quarantined entries in bad/ — counted against the budget
	count     int
	gcRunning bool
	tmpSeq    atomic.Int64

	quarantined atomic.Int64
	gcEvicted   atomic.Int64
	readErrs    atomic.Int64
	writeErrs   atomic.Int64
}

// Open creates (or reopens) the store rooted at root. maxBytes bounds
// the live entry bytes (<= 0 = unbounded); chaos may be nil. Reopening
// an existing root walks it once to rebuild the size accounting — that
// walk is what makes a restarted replica warm instead of amnesiac.
func Open(root string, maxBytes int64, chaos *faults.DiskInjector) (*Store, error) {
	s := &Store{
		dir:      filepath.Join(root, fmt.Sprintf("v%d", FormatVersion)),
		maxBytes: maxBytes,
		chaos:    chaos,
		syncDir:  fsyncDir,
	}
	s.tmpDir = filepath.Join(s.dir, "tmp")
	s.badDir = filepath.Join(s.dir, "bad")
	for _, d := range []string{s.dir, s.tmpDir, s.badDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("diskcache: open: %w", err)
		}
	}
	// A crash can strand temp files; they were never visible, so they
	// are garbage by construction.
	if stale, err := os.ReadDir(s.tmpDir); err == nil {
		for _, e := range stale {
			os.Remove(filepath.Join(s.tmpDir, e.Name()))
		}
	}
	entries, err := s.walk()
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		s.bytes += e.size
		s.count++
	}
	// Quarantined evidence survives restarts; so must its accounting,
	// or a replica that crashed with a full bad/ would leak that space
	// past the budget forever.
	for _, e := range s.walkBad() {
		s.badBytes += e.size
	}
	return s, nil
}

// path maps a key to its entry file, sharded by key prefix so no single
// directory grows unboundedly.
func (s *Store) path(key string) string {
	shard := "__"
	if len(key) >= 2 {
		shard = key[:2]
	}
	return filepath.Join(s.dir, shard, key)
}

// Get returns the payload stored for key. It returns ErrNotFound for a
// missing entry, ErrCorrupt after quarantining an entry that failed
// verification, and other errors for environmental failures (including
// injected ones) — every non-nil error means "treat as a miss".
func (s *Store) Get(key string) ([]byte, error) {
	if err := s.chaos.Read(key); err != nil {
		s.readErrs.Add(1)
		return nil, err
	}
	p := s.path(key)
	data, err := os.ReadFile(p)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, ErrNotFound
		}
		s.readErrs.Add(1)
		return nil, fmt.Errorf("diskcache: read %s: %w", key, err)
	}
	payload, err := decode(data)
	if err == nil && s.chaos.Checksum(key) {
		err = fmt.Errorf("injected checksum mismatch")
	}
	if err != nil {
		s.quarantine(key, p, int64(len(data)))
		return nil, fmt.Errorf("%w: %s: %v", ErrCorrupt, key, err)
	}
	// Re-stamp recency so GC's LRU-by-atime ordering tracks reads even
	// on filesystems mounted noatime. Best effort: a failure here only
	// ages the entry.
	now := time.Now()
	_ = os.Chtimes(p, now, now)
	return payload, nil
}

// Put durably stores payload under key. Existing entries are left in
// place (the store is content-addressed: same key, same bytes) with
// their recency refreshed. Any error means the entry may be absent but
// is never torn.
func (s *Store) Put(key string, payload []byte) error {
	if err := s.chaos.Write(key); err != nil {
		s.writeErrs.Add(1)
		return err
	}
	p := s.path(key)
	if _, err := os.Stat(p); err == nil {
		now := time.Now()
		_ = os.Chtimes(p, now, now)
		return nil
	}
	if err := s.mkShard(filepath.Dir(p)); err != nil {
		s.writeErrs.Add(1)
		return fmt.Errorf("diskcache: write %s: %w", key, err)
	}
	data := encode(payload)
	tmp := filepath.Join(s.tmpDir, fmt.Sprintf("%s.%d.%d", key, os.Getpid(), s.tmpSeq.Add(1)))
	if err := writeFileSync(tmp, data); err != nil {
		os.Remove(tmp)
		s.writeErrs.Add(1)
		return fmt.Errorf("diskcache: write %s: %w", key, err)
	}
	if err := os.Rename(tmp, p); err != nil {
		os.Remove(tmp)
		s.writeErrs.Add(1)
		return fmt.Errorf("diskcache: write %s: %w", key, err)
	}
	// fsync the shard directory so the rename itself is durable.
	s.syncDir(filepath.Dir(p))

	s.mu.Lock()
	s.bytes += int64(len(data))
	s.count++
	over := s.maxBytes > 0 && s.bytes+s.badBytes > s.maxBytes && !s.gcRunning
	if over {
		s.gcRunning = true
	}
	s.mu.Unlock()
	if over {
		go s.gc()
	}
	return nil
}

// mkShard creates the shard directory dir unless it exists. A new
// shard is a new entry in the version directory, so that directory is
// fsynced as well: otherwise a crash could drop the shard together with
// every entry later renamed into it. shardMu makes a concurrent Put
// that finds the shard already there wait until its creator has synced
// the version directory.
func (s *Store) mkShard(dir string) error {
	s.shardMu.Lock()
	defer s.shardMu.Unlock()
	err := os.Mkdir(dir, 0o755)
	if errors.Is(err, fs.ErrExist) {
		return nil
	}
	if err != nil {
		return err
	}
	s.syncDir(s.dir)
	return nil
}

// fsyncDir fsyncs a directory so the entries created or renamed in it
// are durable. Best effort: a failure degrades durability for those
// entries, not integrity.
func fsyncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		_ = d.Sync()
		d.Close()
	}
}

// writeFileSync writes data to path and fsyncs it before closing.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// encode frames a payload: magic, payload SHA-256, payload length,
// payload.
func encode(payload []byte) []byte {
	sum := sha256.Sum256(payload)
	data := make([]byte, 0, headerSize+len(payload))
	data = append(data, magic...)
	data = append(data, sum[:]...)
	data = binary.BigEndian.AppendUint64(data, uint64(len(payload)))
	return append(data, payload...)
}

// decode verifies a framed entry and returns its payload.
func decode(data []byte) ([]byte, error) {
	if len(data) < headerSize {
		return nil, fmt.Errorf("short entry: %d bytes", len(data))
	}
	if !bytes.Equal(data[:len(magic)], magic) {
		return nil, fmt.Errorf("bad magic %x", data[:len(magic)])
	}
	var sum [sha256.Size]byte
	copy(sum[:], data[len(magic):])
	n := binary.BigEndian.Uint64(data[len(magic)+sha256.Size : headerSize])
	payload := data[headerSize:]
	if uint64(len(payload)) != n {
		return nil, fmt.Errorf("length mismatch: header %d, payload %d", n, len(payload))
	}
	if sha256.Sum256(payload) != sum {
		return nil, fmt.Errorf("checksum mismatch")
	}
	return payload, nil
}

// quarantine moves a failed entry into bad/ (preserving the evidence)
// and moves its bytes from the live accounting to the quarantine
// accounting — the file still occupies disk, so it still counts
// against the budget. If the move itself fails the entry is removed
// outright — a corrupt file must never be served twice.
func (s *Store) quarantine(key, path string, size int64) {
	kept := os.Rename(path, filepath.Join(s.badDir, key)) == nil
	if !kept {
		os.Remove(path)
	}
	s.quarantined.Add(1)
	s.mu.Lock()
	s.bytes -= size
	s.count--
	if s.bytes < 0 {
		s.bytes = 0
	}
	if s.count < 0 {
		s.count = 0
	}
	if kept {
		s.badBytes += size
	}
	over := s.maxBytes > 0 && s.bytes+s.badBytes > s.maxBytes && !s.gcRunning
	if over {
		s.gcRunning = true
	}
	s.mu.Unlock()
	if over {
		go s.gc()
	}
}

// entryInfo is one live entry seen by a directory walk.
type entryInfo struct {
	path  string
	size  int64
	mtime time.Time
}

// walk lists live entries (excluding tmp/ and bad/).
func (s *Store) walk() ([]entryInfo, error) {
	var out []entryInfo
	shards, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("diskcache: walk: %w", err)
	}
	for _, sh := range shards {
		if !sh.IsDir() || sh.Name() == "tmp" || sh.Name() == "bad" {
			continue
		}
		files, err := os.ReadDir(filepath.Join(s.dir, sh.Name()))
		if err != nil {
			continue
		}
		for _, f := range files {
			info, err := f.Info()
			if err != nil {
				continue
			}
			out = append(out, entryInfo{
				path:  filepath.Join(s.dir, sh.Name(), f.Name()),
				size:  info.Size(),
				mtime: info.ModTime(),
			})
		}
	}
	return out, nil
}

// walkBad lists quarantined entries in bad/.
func (s *Store) walkBad() []entryInfo {
	var out []entryInfo
	files, err := os.ReadDir(s.badDir)
	if err != nil {
		return nil
	}
	for _, f := range files {
		info, err := f.Info()
		if err != nil {
			continue
		}
		out = append(out, entryInfo{
			path:  filepath.Join(s.badDir, f.Name()),
			size:  info.Size(),
			mtime: info.ModTime(),
		})
	}
	return out
}

// gc brings the store back under its byte budget and re-trues the
// accounting from the walks it took anyway. Order of sacrifice:
// expired quarantined evidence goes unconditionally, remaining
// quarantined entries go oldest-first while over budget (evidence is
// worth less than cache hits), and only then are live entries evicted
// least-recently-used.
func (s *Store) gc() {
	defer func() {
		s.mu.Lock()
		s.gcRunning = false
		s.mu.Unlock()
	}()
	entries, err := s.walk()
	if err != nil {
		return
	}
	bad := s.walkBad()
	sort.Slice(bad, func(i, j int) bool { return bad[i].mtime.Before(bad[j].mtime) })
	var badTotal int64
	for _, e := range bad {
		badTotal += e.size
	}
	expiry := time.Now().Add(-quarantineTTL)
	for i, e := range bad {
		if !e.mtime.Before(expiry) {
			bad = bad[i:]
			break
		}
		if os.Remove(e.path) == nil {
			badTotal -= e.size
		}
		if i == len(bad)-1 {
			bad = nil
		}
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	var total int64
	for _, e := range entries {
		total += e.size
	}
	if s.maxBytes > 0 {
		for _, e := range bad {
			if total+badTotal <= s.maxBytes {
				break
			}
			if os.Remove(e.path) == nil {
				badTotal -= e.size
			}
		}
		for _, e := range entries {
			if total+badTotal <= s.maxBytes {
				break
			}
			if os.Remove(e.path) == nil {
				total -= e.size
				s.gcEvicted.Add(1)
			}
		}
	}
	live := 0
	for _, e := range entries {
		if _, err := os.Stat(e.path); err == nil {
			live++
		}
	}
	s.mu.Lock()
	s.bytes = total
	s.badBytes = badTotal
	s.count = live
	s.mu.Unlock()
}

// GC runs one synchronous collection pass (tests and operators; the
// serving path relies on the automatic background pass).
func (s *Store) GC() {
	s.mu.Lock()
	if s.gcRunning {
		s.mu.Unlock()
		return
	}
	s.gcRunning = true
	s.mu.Unlock()
	s.gc()
}

// Stats is a point-in-time snapshot for metrics.
type Stats struct {
	Entries         int
	Bytes           int64
	QuarantineBytes int64 // bytes currently held by quarantined entries in bad/
	Quarantined     int64 // entries quarantined since Open
	Evicted         int64 // entries evicted by GC since Open
	ReadErrors      int64 // failed or injected reads since Open
	WriteErrors     int64 // failed or injected writes since Open
}

// Stats returns current counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	count, bytes, badBytes := s.count, s.bytes, s.badBytes
	s.mu.Unlock()
	return Stats{
		Entries:         count,
		Bytes:           bytes,
		QuarantineBytes: badBytes,
		Quarantined:     s.quarantined.Load(),
		Evicted:         s.gcEvicted.Load(),
		ReadErrors:      s.readErrs.Load(),
		WriteErrors:     s.writeErrs.Load(),
	}
}
