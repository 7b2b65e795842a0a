package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/histo"
	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/server"
)

// scrape fetches a /metrics page.
func scrape(client *http.Client, url string) ([]byte, error) {
	resp, err := client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", url, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// sample reads one unlabeled series from a Prometheus text page; a
// missing series reads as 0.
func sample(page []byte, name string) float64 {
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err == nil {
				return v
			}
		}
	}
	return 0
}

// histDelta is the distribution of the observations a histogram gained
// between two scrapes.
func histDelta(before, after []byte, name string) (histo.Snapshot, error) {
	a, err := histo.ParsePrometheus(after, name)
	if err != nil {
		return histo.Snapshot{}, err
	}
	b, err := histo.ParsePrometheus(before, name)
	if err != nil {
		return histo.Snapshot{}, err
	}
	if len(a.Counts) != len(b.Counts) {
		return histo.Snapshot{}, fmt.Errorf("%s: bucket layout changed between scrapes", name)
	}
	d := histo.Snapshot{Bounds: a.Bounds, Counts: make([]int64, len(a.Counts)), Count: a.Count - b.Count,
		SumSeconds: a.SumSeconds - b.SumSeconds}
	for i := range a.Counts {
		d.Counts[i] = a.Counts[i] - b.Counts[i]
	}
	return d, nil
}

// servedOptions are the pipeline options rpserved resolves a default
// request to; the traced walk over the served programs uses them.
func servedOptions(p program) pipeline.Options {
	return pipeline.Options{Lang: p.Lang, Workers: 1,
		Interp: interp.Options{MaxSteps: refMaxSteps, Timeout: 10 * time.Second}}
}

// traced is a serve workload's traced run. On one fresh cluster it
// replays the fixed-rate phase, reading every response's serving
// metadata and both processes' /metrics before and after; then it sends
// pairs of identical requests, one routed and one straight to the
// replica, which gives the router's own cost. The programs behind the
// requests are also walked layer by layer in this process.
func (s *serveRun) traced(spansPath string) workloadResult {
	w := workloadResult{Workload: s.name, Correct: true, Valid: true, Metrics: map[string]metricValue{}}
	fail := func(err error) workloadResult {
		w.problem("%v", err)
		return w
	}
	client := newClient()
	defer client.CloseIdleConnections()
	c, dir, err := s.start(0, client, 1)
	defer os.RemoveAll(dir)
	if err != nil {
		return fail(err)
	}
	stopped := false
	defer func() {
		if !stopped {
			c.stop()
		}
	}()

	var pages [4][]byte // router, server; before, after
	for i, url := range []string{c.routerURL, c.serverURL} {
		if pages[i], err = scrape(client, url); err != nil {
			return fail(err)
		}
	}
	fixed := openLoop(client, c.routerURL, s.nFixed, s.spec.fixedRate, s.body, func(int) bool { return true })
	for i, url := range []string{c.routerURL, c.serverURL} {
		if pages[2+i], err = scrape(client, url); err != nil {
			return fail(err)
		}
	}
	s.count(fixed)

	rec := newRecorder()
	overhead, err := s.pairs(rec, client, c)
	if err != nil {
		return fail(err)
	}
	stopped = true
	if err := c.stop(); err != nil {
		return fail(err)
	}

	var late, wait, pipeMS, queueMS []float64
	tiers := map[string]int{}
	ok := 0
	for i := range fixed {
		late = append(late, float64(fixed[i].late)/1e3)
		wait = append(wait, float64(fixed[i].wait)/1e3)
		if fixed[i].failed() {
			continue
		}
		var resp server.PromoteResponse
		if err := json.Unmarshal(fixed[i].body, &resp); err != nil {
			return fail(fmt.Errorf("decoding response %d: %w", i, err))
		}
		ok++
		tiers[resp.Serving.Cache]++
		if resp.Serving.Cache == "miss" {
			pipeMS = append(pipeMS, resp.Serving.PipelineMS)
			queueMS = append(queueMS, resp.Serving.QueueWaitMS)
		}
		if s.sampled(i) {
			s.samples[i] = append(s.samples[i], fixed[i].body)
		}
	}
	w.Attempted, w.Failed = s.attempted, s.failed
	if s.attempted > 0 {
		w.FailRatio = float64(s.failed) / float64(s.attempted)
	}
	for _, p := range s.problems {
		w.problem("%s", p)
	}
	s.check(&w)

	ratio := func(tier string) float64 {
		if ok == 0 {
			return 0
		}
		return float64(tiers[tier]) / float64(ok)
	}
	delta := func(page int, name string) float64 { return sample(pages[2+page], name) - sample(pages[page], name) }
	w.set("client.late_us_p90", percentile(late, 0.9), nil)
	w.set("client.conn_wait_us_p90", percentile(wait, 0.9), nil)
	w.set("router.overhead_us_p50", overhead, nil)
	w.set("router.hedges", delta(0, "rprouter_hedges_total"), nil)
	w.set("router.spills", delta(0, "rprouter_spills_total"), nil)
	w.set("router.failovers", delta(0, "rprouter_failovers_total"), nil)
	w.set("router.gateway_errors", delta(0, "rprouter_gateway_errors_total"), nil)
	w.set("server.hit_ratio", ratio("hit"), nil)
	w.set("server.disk_hit_ratio", ratio("disk"), nil)
	w.set("server.collapsed_ratio", ratio("collapsed"), nil)
	w.set("server.miss_ratio", ratio("miss"), nil)
	w.set("server.pipeline_ms_p50", percentile(pipeMS, 0.5), nil)
	w.set("server.queue_wait_ms_p90", percentile(queueMS, 0.9), nil)
	w.set("server.rejected", delta(1, "rpserved_rejected_total"), nil)
	w.set("server.evictions", delta(1, "rpserved_cache_evictions_total"), nil)
	w.set("diskcache.write_errors", delta(1, "rpserved_disk_write_errors_total"), nil)
	if n := sample(pages[3], "rpserved_disk_entries"); n > 0 {
		w.set("diskcache.bytes_per_entry", sample(pages[3], "rpserved_disk_bytes")/n, nil)
	}
	h, err := histDelta(pages[1], pages[3], "rpserved_request_seconds")
	if err != nil {
		return fail(err)
	}
	w.set("server.handler_ms_p50", 1000*h.Quantile(0.5), nil)

	// The pipeline work behind the requests, walked layer by layer in this
	// process: serve-cold's fixed-phase programs, and serve-hot's distinct
	// programs, which the replica compiled while its cache was primed.
	progs := s.in.progs
	if s.name == wServeCold {
		progs = progs[:min(s.spec.corpus, s.nFixed)]
	}
	sum, err := traceBatch(rec, progs, servedOptions, s.traceBudget().Seconds(), nil)
	if err != nil {
		return fail(err)
	}
	sum.apply(&w)
	if err := rec.write(spansPath); err != nil {
		return fail(fmt.Errorf("writing spans: %w", err))
	}
	return w
}

// traceBudget is how long the traced run sends router/replica pairs and
// walks the layers (at least one pass): half a fixed-rate phase each, so
// that a traced run of every workload stays within a minute.
func (s *serveRun) traceBudget() time.Duration { return fixedPhase(s.seconds, s.rounds) / 2 }

// pairs sends the fixed phase's requests again, closed loop, each once
// through the router and once straight to the replica (alternating which
// goes first), and returns the median of routed minus direct latency in
// microseconds. serve-hot's pairs are both cache hits. serve-cold's use
// programs never sent before, and the direct twin asks for a timeout one
// millisecond shorter: that changes its cache key but not its work, so
// both halves of a pair run the pipeline.
func (s *serveRun) pairs(rec *recorder, client *http.Client, c *cluster) (float64, error) {
	budget := s.traceBudget()
	start := time.Now()
	var diffs []float64
	for i := 0; time.Since(start) < budget; i++ {
		routed := s.body(i % s.nFixed)
		direct := routed
		if s.name == wServeCold {
			pos := s.nFixed + i
			if pos >= len(s.in.at) {
				break
			}
			p := s.in.progs[s.in.at[pos]]
			routed = s.body(pos)
			var err error
			if direct, err = requestBody(p, server.RequestOptions{TimeoutMS: 9999}); err != nil {
				return 0, err
			}
		}
		var lat [2]time.Duration
		send := func(k int, url string, body []byte) error {
			id := rec.begin([]string{"client.routed", "client.direct"}[k], i)
			t0 := time.Now()
			status, _, err := post(client, url, body, false)
			lat[k] = time.Since(t0)
			rec.end(id)
			s.attempted++
			if err != nil || status != http.StatusOK {
				s.failed++
				return fmt.Errorf("pair %d: status %d, %v", i, status, err)
			}
			return nil
		}
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0}
		}
		for _, k := range order {
			url := c.routerURL
			body := routed
			if k == 1 {
				url, body = c.serverURL, direct
			}
			if err := send(k, url, body); err != nil {
				return 0, err
			}
		}
		diffs = append(diffs, float64(lat[0]-lat[1])/1e3)
	}
	return median(diffs), nil
}
