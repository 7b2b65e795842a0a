package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/workload"
)

// TestEndToEndCorpusReplay drives a real HTTP round trip: a replay
// corpus of generated programs fired concurrently at an httptest
// server, repeating programs so the cache warms up. It asserts every
// request succeeds, the hit rate is positive, every response for the
// same program carries a byte-identical outcome (whatever mix of cache
// hits, misses, and concurrent first-computations produced it), and the
// server drains cleanly afterwards.
func TestEndToEndCorpusReplay(t *testing.T) {
	const (
		seed    = 11
		unique  = 3
		n       = 24
		clients = 4
	)
	s := newTestServer(t, Config{workers: 2, QueueDepth: n}) // queue deep enough to never reject
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	corpus, err := workload.ReplayCorpus(seed, unique, "small")
	if err != nil {
		t.Fatal(err)
	}
	bodies := make([][]byte, unique)
	for i, w := range corpus {
		b, err := json.Marshal(PromoteRequest{Source: w.Src})
		if err != nil {
			t.Fatal(err)
		}
		bodies[i] = b
	}
	mix := workload.MixIndexes(seed, n, unique)

	type reply struct {
		program int
		cache   string
		outcome []byte
		err     error
	}
	replies := make([]reply, n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				program := mix[i]
				resp, err := http.Post(ts.URL+"/v1/promote", "application/json", bytes.NewReader(bodies[program]))
				if err != nil {
					replies[i] = reply{program: program, err: err}
					continue
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err == nil && resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
				}
				if err != nil {
					replies[i] = reply{program: program, err: err}
					continue
				}
				var pr PromoteResponse
				if err := json.Unmarshal(body, &pr); err != nil {
					replies[i] = reply{program: program, err: err}
					continue
				}
				replies[i] = reply{program: program, cache: pr.Serving.Cache, outcome: pr.Outcome}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	hits := 0
	canonical := make(map[int][]byte, unique)
	for i, r := range replies {
		if r.err != nil {
			t.Fatalf("request %d (program %d): %v", i, r.program, r.err)
		}
		if r.cache == "hit" {
			hits++
		}
		if want, ok := canonical[r.program]; ok {
			if !bytes.Equal(want, r.outcome) {
				t.Fatalf("program %d served two different outcomes:\n%s\nvs\n%s", r.program, want, r.outcome)
			}
		} else {
			canonical[r.program] = r.outcome
		}
	}
	if hits == 0 {
		t.Fatalf("no cache hits across %d requests over %d programs", n, unique)
	}
	if len(canonical) != unique {
		t.Fatalf("replay touched %d of %d programs", len(canonical), unique)
	}

	// Every outcome must carry the schema version.
	for program, out := range canonical {
		var enc struct {
			SchemaVersion int `json:"schema_version"`
		}
		if err := json.Unmarshal(out, &enc); err != nil || enc.SchemaVersion != 1 {
			t.Fatalf("program %d outcome schema_version = %d (err %v), want 1", program, enc.SchemaVersion, err)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after load = %v, want nil", err)
	}
	resp, err := http.Post(ts.URL+"/v1/promote", "application/json", bytes.NewReader(bodies[0]))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: %d, want 503", resp.StatusCode)
	}
}
