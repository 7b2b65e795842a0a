package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptrace"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
	"repro/internal/workload"
)

// seed is the replay corpus and mix seed of every load.
const seed = 1

// mix is one deterministic load: n requests over the first unique
// programs of the replay corpus at one size, visited uniformly or with
// Zipf skew zipfS, sent by c concurrent clients as fast as they are
// answered.
type mix struct {
	n, c, unique int
	size         string
	zipfS        float64
}

// served is one 200 response: its program and its serving.cache.
type served struct {
	program int
	cache   string
}

// tally is what one load saw.
type tally struct {
	served   []served
	outcomes map[int][]byte // the first outcome of each program
	failures []string       // final non-200 responses and transport errors
	diverged []string       // programs answered with two different outcomes
	retries  int            // 429s retried after their Retry-After
	// signalled says the load's signal went out; inflight counts the
	// requests in flight at that moment, answered how many of them
	// came back 200.
	signalled          bool
	inflight, answered int
}

// verdict judges a load that nothing interrupted: every request was
// answered 200 and every program with one outcome.
func (t *tally) verdict() error {
	switch {
	case len(t.failures) > 0:
		return fmt.Errorf("%d of %d requests failed, first: %s",
			len(t.failures), len(t.failures)+len(t.served), t.failures[0])
	case len(t.diverged) > 0:
		return fmt.Errorf("outcomes diverged: %s", t.diverged[0])
	case len(t.served) == 0:
		return errors.New("no request succeeded")
	}
	return nil
}

func (t *tally) String() string {
	s := fmt.Sprintf("%d ok (%d hit, %d disk, %d collapsed, %d miss), %d failed, %d retried",
		len(t.served), t.count("hit"), t.count("disk"), t.count("collapsed"), t.count("miss"),
		len(t.failures), t.retries)
	if t.signalled {
		s += fmt.Sprintf(", %d of %d in flight at the signal answered", t.answered, t.inflight)
	}
	return s
}

// count is the number of 200s whose serving.cache was cache.
func (t *tally) count(cache string) int {
	n := 0
	for _, s := range t.served {
		if s.cache == cache {
			n++
		}
	}
	return n
}

// programs is the number of distinct programs with at least one 200
// whose serving.cache was cache.
func (t *tally) programs(cache string) int {
	seen := map[int]bool{}
	for _, s := range t.served {
		if s.cache == cache {
			seen[s.program] = true
		}
	}
	return len(seen)
}

// sameOutcomes fails unless t answered every program of ref with the
// bytes ref recorded for it.
func (t *tally) sameOutcomes(ref *tally) error {
	for p, want := range ref.outcomes {
		if got, ok := t.outcomes[p]; !ok || !bytes.Equal(got, want) {
			return fmt.Errorf("program %d: outcome differs from the reference run", p)
		}
	}
	return nil
}

// maxRetries bounds the 429 retries of one request.
const maxRetries = 6

// load sends m to the promote endpoint under base (an http:// URL).
// A request is in flight from the moment the server starts reading its
// body (every request asks for a 100 Continue, which the server sends
// at that read) until its answer. When signal is not nil, load calls
// it once, at the first 200 that comes back while another request is
// in flight; it holds the tally's lock while it does, so no request
// can start or finish between the check and the signal.
func load(base string, m mix, signal func()) (*tally, error) {
	corpus, err := workload.ReplayCorpus(seed, m.unique, m.size)
	if err != nil {
		return nil, err
	}
	bodies := make([][]byte, len(corpus))
	for i, w := range corpus {
		if bodies[i], err = json.Marshal(server.PromoteRequest{Source: w.Src}); err != nil {
			return nil, err
		}
	}
	order := workload.Profile{Unique: m.unique, ZipfS: m.zipfS}.Mix(seed, m.n)
	url := base + "/v1/promote"
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConnsPerHost = m.c
	defer tr.CloseIdleConnections()
	client := &http.Client{Timeout: time.Minute, Transport: tr}

	t := &tally{outcomes: map[int][]byte{}}
	var mu sync.Mutex
	inflight := map[int]bool{}
	var atSignal map[int]bool
	record := func(i, program int, r result) {
		mu.Lock()
		defer mu.Unlock()
		delete(inflight, i)
		t.retries += r.retries
		switch {
		case r.err != nil:
			t.failures = append(t.failures, fmt.Sprintf("request %d (program %d): %v", i, program, r.err))
			return
		case r.status != http.StatusOK:
			t.failures = append(t.failures, fmt.Sprintf("request %d (program %d): HTTP %d %s", i, program, r.status, bytes.TrimSpace(r.body)))
			return
		}
		t.served = append(t.served, served{program, r.resp.Serving.Cache})
		if want, ok := t.outcomes[program]; !ok {
			t.outcomes[program] = r.resp.Outcome
		} else if !bytes.Equal(want, r.resp.Outcome) {
			t.diverged = append(t.diverged, fmt.Sprintf("request %d: program %d", i, program))
		}
		if atSignal[i] {
			t.answered++
		}
		if signal != nil && !t.signalled && len(inflight) > 0 {
			signal()
			t.signalled = true
			t.inflight = len(inflight)
			atSignal = maps.Clone(inflight)
		}
	}

	jobs := make(chan int)
	var wg sync.WaitGroup
	for range m.c {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				started := func() {
					mu.Lock()
					inflight[i] = true
					mu.Unlock()
				}
				record(i, order[i], send(client, url, bodies[order[i]], started))
			}
		}()
	}
	for i := range order {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	fmt.Printf("rpdrill: %s\n", t)
	return t, nil
}

// result is one request's final answer.
type result struct {
	status  int
	resp    server.PromoteResponse // decoded when status is 200
	body    []byte                 // the error body otherwise
	retries int
	err     error // transport or decoding failure
}

// send posts body, retrying a 429 after the wait its Retry-After
// header asks for, at most maxRetries times. It calls started when the
// server asks for the body.
func send(client *http.Client, url string, body []byte, started func()) (r result) {
	trace := &httptrace.ClientTrace{Got100Continue: started}
	for {
		req, err := http.NewRequestWithContext(httptrace.WithClientTrace(context.Background(), trace),
			http.MethodPost, url, bytes.NewReader(body))
		if err != nil {
			r.err = err
			return r
		}
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Expect", "100-continue")
		resp, err := client.Do(req)
		if err != nil {
			r.err = err
			return r
		}
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		r.status = resp.StatusCode
		switch {
		case err != nil:
			r.err = err
		case r.status == http.StatusTooManyRequests && r.retries < maxRetries:
			r.retries++
			time.Sleep(retryAfter(resp.Header.Get("Retry-After")))
			continue
		case r.status == http.StatusOK:
			r.err = json.Unmarshal(data, &r.resp)
		default:
			r.body = data
		}
		return r
	}
}

// retryAfter reads a Retry-After header in whole seconds, capped at
// 5s; a missing or malformed header waits 100ms.
func retryAfter(h string) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(h))
	if err != nil || secs < 0 {
		return 100 * time.Millisecond
	}
	return min(time.Duration(secs)*time.Second, 5*time.Second)
}
