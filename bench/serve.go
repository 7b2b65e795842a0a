package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

// binaries are the serving programs the serve workloads start.
type binaries struct{ server, router string }

// buildServing builds rpserved and rprouter from this checkout.
func buildServing(outDir string) (binaries, error) {
	dir, err := filepath.Abs(filepath.Join(outDir, "bin"))
	if err != nil {
		return binaries{}, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return binaries{}, err
	}
	b := binaries{server: filepath.Join(dir, "rpserved"), router: filepath.Join(dir, "rprouter")}
	for _, t := range []struct{ pkg, path string }{{"repro/cmd/rpserved", b.server}, {"repro/cmd/rprouter", b.router}} {
		cmd := exec.Command("go", "build", "-o", t.path, t.pkg)
		cmd.Env = childEnv()
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		if err := cmd.Run(); err != nil {
			return b, fmt.Errorf("building %s: %w", t.pkg, err)
		}
	}
	return b, nil
}

// proc is one started server process.
type proc struct {
	name string
	cmd  *exec.Cmd
	addr chan string // the address the process announced it listens on
	done chan struct{}
	err  error
}

// announcer copies a server's standard output to the log and passes on
// the address of its "listening on <addr>" line once. Waiting for that
// line instead of polling a port file times start-up to the moment the
// server listens, not to the next tick of a polling loop.
type announcer struct {
	log  io.Writer
	line []byte
	addr chan<- string // buffered for the one send; nil once sent
}

func (a *announcer) Write(p []byte) (int, error) {
	for _, c := range p {
		if c != '\n' {
			a.line = append(a.line, c)
			continue
		}
		if _, rest, ok := strings.Cut(string(a.line), " listening on "); ok && a.addr != nil {
			if f := strings.Fields(rest); len(f) > 0 {
				a.addr <- strings.TrimSuffix(f[0], ",")
				a.addr = nil
			}
		}
		a.line = a.line[:0]
	}
	// A failed log write is dropped: returning it would stop the copy
	// and kill the server with SIGPIPE on its next line of output.
	_, _ = a.log.Write(p)
	return len(p), nil
}

func spawn(bin string, log io.Writer, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = childEnv()
	addr := make(chan string, 1)
	cmd.Stdout, cmd.Stderr = &announcer{log: log, addr: addr}, log
	setChildAttrs(cmd)
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	p := &proc{name: filepath.Base(bin), cmd: cmd, addr: addr, done: make(chan struct{})}
	go func() {
		p.err = cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

// listening waits until the process announces its address.
func (p *proc) listening() (string, error) {
	select {
	case addr := <-p.addr:
		return addr, nil
	case <-p.done:
		return "", fmt.Errorf("%s exited before listening: %v", p.name, p.err)
	case <-time.After(10 * time.Second):
		return "", fmt.Errorf("%s did not listen within 10s", p.name)
	}
}

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop sends SIGTERM, which the servers answer with a clean drain (or,
// just after start-up, by dying of it: see endedBySIGTERM), and waits
// for the exit; a process still running after 10s is killed.
func (p *proc) stop() error {
	if p.exited() {
		return fmt.Errorf("%s exited early: %v", p.name, p.err)
	}
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-p.done:
		if p.err != nil && !endedBySIGTERM(p.err) {
			return fmt.Errorf("%s: %w", p.name, p.err)
		}
		return nil
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill() // the wait below reports the outcome
		<-p.done
		return fmt.Errorf("%s did not exit within 10s of SIGTERM", p.name)
	}
}

// cluster is one rprouter fronting one rpserved.
type cluster struct {
	server, router       *proc
	serverURL, routerURL string
	log                  *os.File // both processes' output
}

// startCluster starts rpserved, then rprouter in front of it, and returns
// once both answer /readyz with 200. Their output goes to servers.log in
// dir, and so does rpserved's disk cache when disk is set.
func startCluster(bins binaries, dir string, disk bool) (*cluster, error) {
	log, err := os.Create(filepath.Join(dir, "servers.log"))
	if err != nil {
		return nil, err
	}
	c := &cluster{log: log}
	args := []string{"-addr", "127.0.0.1:0"}
	if disk {
		args = append(args, "-cache-dir", filepath.Join(dir, "cache"))
	}
	if c.server, err = spawn(bins.server, log, args...); err != nil {
		c.stop()
		return nil, err
	}
	addr, err := c.server.listening()
	if err != nil {
		c.stop()
		return nil, err
	}
	c.serverURL = "http://" + addr
	c.router, err = spawn(bins.router, log, "-replicas", addr, "-addr", "127.0.0.1:0")
	if err != nil {
		c.stop()
		return nil, err
	}
	raddr, err := c.router.listening()
	if err != nil {
		c.stop()
		return nil, err
	}
	c.routerURL = "http://" + raddr
	for _, t := range []struct {
		url string
		p   *proc
	}{{c.serverURL, c.server}, {c.routerURL, c.router}} {
		if err := waitReady(t.url, t.p); err != nil {
			c.stop()
			return nil, err
		}
	}
	return c, nil
}

// rssMB sums the peak resident sets of both processes.
func (c *cluster) rssMB() float64 {
	return peakRSSMB(strconv.Itoa(c.server.cmd.Process.Pid)) + peakRSSMB(strconv.Itoa(c.router.cmd.Process.Pid))
}

// stop drains the router, then the replica, and closes their log once
// both have exited.
func (c *cluster) stop() error {
	var errs []error
	for _, p := range []*proc{c.router, c.server} {
		if p != nil {
			if err := p.stop(); err != nil {
				errs = append(errs, err)
			}
		}
	}
	c.log.Close() // only written by the exited processes' output copiers
	return errors.Join(errs...)
}

// waitReady polls a listening server's /readyz until it answers 200.
func waitReady(url string, p *proc) error {
	client := &http.Client{Timeout: time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := client.Get(url + "/readyz")
		if err == nil {
			_, _ = io.Copy(io.Discard, resp.Body) // drained for reuse; the status decides
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if p.exited() {
			return fmt.Errorf("%s exited: %v", p.name, p.err)
		}
		sleep(100 * time.Microsecond)
	}
	return fmt.Errorf("%s not ready within 10s", p.name)
}

// newClient returns an HTTP client that opens at most senders
// connections per host.
func newClient() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     senders,
			MaxIdleConnsPerHost: senders,
			IdleConnTimeout:     time.Minute,
			DisableCompression:  true,
		},
	}
}

// post sends one promotion request; the body is kept only when asked.
func post(client *http.Client, url string, body []byte, keep bool) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/promote", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	if keep {
		data, err := io.ReadAll(resp.Body)
		return resp.StatusCode, data, err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode, nil, err
}

// shot is one open-loop request. Times are offsets from the phase start;
// latency runs from due, so a stall also delays every request queued
// behind it.
type shot struct {
	due, done time.Duration
	// late is how long after due an idle sender woke up (generator
	// lateness); wait is how long the request waited for a busy sender,
	// which owns the connection (connection wait).
	late, wait time.Duration
	status     int
	err        error
	body       []byte
}

func (s *shot) failed() bool { return s.err != nil || s.status != http.StatusOK }

// latencyMS is the request's latency from its due time; a failed request
// counts as missing every limit.
func (s *shot) latencyMS() float64 {
	if s.failed() {
		return math.Inf(1)
	}
	return ms(s.done - s.due)
}

// spinWindow is how early a sender wakes before a request is due, to
// spin the rest of the way: waking from any sleep takes tens of
// microseconds on a loaded 2-vCPU host, a tenth of a hit's latency.
const spinWindow = 60 * time.Microsecond

// openLoop sends n requests at rate req/s from the sender goroutines:
// request i is due i/rate seconds after the start, whether or not
// earlier requests have completed.
func openLoop(client *http.Client, url string, n int, rate float64, body func(int) []byte, keep func(int) bool) []shot {
	shots := make([]shot, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					return
				}
				sh := &shots[i]
				sh.due = time.Duration(float64(i) / rate * float64(time.Second))
				if now := time.Since(start); now < sh.due {
					if d := sh.due - now - spinWindow; d > 0 {
						sleep(d)
					}
					for time.Since(start) < sh.due {
					}
					sh.late = time.Since(start) - sh.due
				} else {
					sh.wait = now - sh.due
				}
				sh.status, sh.body, sh.err = post(client, url, body(i), keep(i))
				sh.done = time.Since(start)
			}
		}()
	}
	wg.Wait()
	return shots
}

// stepResult is the record of one rate's open-loop phase in one round.
type stepResult struct {
	lat               []float64
	sent, failed      int
	completed         int
	elapsed           time.Duration // until the last completion
	dueEarly, doneEnd int           // see evalStep
}

func evalStep(shots []shot, rate, limitMS float64) stepResult {
	r := stepResult{sent: len(shots)}
	end := time.Duration(float64(len(shots)) / rate * float64(time.Second))
	early := end - time.Duration(2*limitMS*float64(time.Millisecond))
	for i := range shots {
		s := &shots[i]
		r.lat = append(r.lat, s.latencyMS())
		if s.due <= early {
			r.dueEarly++
		}
		if s.failed() {
			r.failed++
			continue
		}
		r.completed++
		if s.done > r.elapsed {
			r.elapsed = s.done
		}
		if s.done <= end {
			r.doneEnd++
		}
	}
	return r
}

// pass judges a step: p90 within the limit, no failed request, and
// completions not trailing the schedule by more than twice the limit at
// the step's end, that is, at least as many requests completed by the end
// as were due twice the limit before it. One straggler does not trip the
// last rule; a growing queue does.
func (r stepResult) pass(limitMS float64) bool {
	return r.failed == 0 && r.doneEnd >= r.dueEarly && percentile(r.lat, 0.9) <= limitMS
}

// rate is the step's measured completion rate.
func (r stepResult) rate() float64 {
	if r.elapsed <= 0 {
		return 0
	}
	return float64(r.completed) / r.elapsed.Seconds()
}

// fixedPhase and stepLength split a serve run's measured time into one
// fixed-rate phase and five ladder steps per round.
func fixedPhase(seconds float64, rounds int) time.Duration {
	return time.Duration(seconds * fixedShare / float64(rounds) * float64(time.Second))
}

func stepLength(seconds float64, rounds int) time.Duration {
	steps := len(serveSpecs[wServeHot].ladder)
	return time.Duration(seconds * (1 - fixedShare) / float64(rounds*steps) * float64(time.Second))
}

// serveInputs are a serve workload's programs and request sequence:
// request position i sends program at[i], with default options unless
// revisits holds another body for it.
type serveInputs struct {
	progs  []program
	funcs  []int    // per program
	bodies [][]byte // per program, default options
	at     []int
	// revisits are serve-cold's repeat visits, each asking for a timeout
	// of its own (see coldTimeoutMS), by position.
	revisits map[int][]byte
}

func requestBody(p program, opts server.RequestOptions) ([]byte, error) {
	opts.Lang = p.Lang
	return json.Marshal(server.PromoteRequest{Source: p.Src, Options: opts})
}

// buildInputs prepares n request positions, the first nFixed of them the
// fixed-rate phase's. serve-hot requests its 64-program corpus in a Zipf
// mix throughout. serve-cold's fixed-rate phase cycles through its corpus,
// each visit under a new cache key, and every later position gets a
// program of its own.
func buildInputs(name string, seed int64, nFixed, n int) (serveInputs, error) {
	in := serveInputs{revisits: map[int][]byte{}}
	var err error
	if name == wServeHot {
		if in.progs, err = hotCorpus(seed); err != nil {
			return in, err
		}
		prof := workload.Profile{Unique: len(in.progs), ZipfS: hotZipfS}
		in.at = prof.Mix(seed, n)
	} else {
		var next int
		if in.progs, next, err = coldCorpus(seed); err != nil {
			return in, err
		}
		corpus := len(in.progs)
		for i := 0; i < n-nFixed; i++ {
			p, err := coldProgram(seed, next+i)
			if err != nil {
				return in, err
			}
			in.progs = append(in.progs, p)
		}
		in.at = make([]int, n)
		for i := range in.at {
			if i >= nFixed {
				in.at[i] = corpus + i - nFixed
				continue
			}
			in.at[i] = i % corpus
			if visit := i / corpus; visit > 0 {
				opts := server.RequestOptions{TimeoutMS: coldTimeoutMS - int64(visit)}
				if in.revisits[i], err = requestBody(in.progs[in.at[i]], opts); err != nil {
					return in, err
				}
			}
		}
	}
	in.bodies = make([][]byte, len(in.progs))
	in.funcs = make([]int, len(in.progs))
	for i, p := range in.progs {
		in.funcs[i] = p.funcs()
		if in.bodies[i], err = requestBody(p, server.RequestOptions{}); err != nil {
			return in, err
		}
	}
	return in, nil
}

// serveRun drives one serving workload over its rounds.
type serveRun struct {
	name    string
	spec    serveSpec
	seed    int64
	seconds float64
	rounds  int
	bins    binaries
	tmp     string

	in     serveInputs
	nFixed int
	steps  [][2]int // ladder step k sends positions [steps[k][0], steps[k][0]+steps[k][1])

	setup, rss []float64
	fixed      [][]shot       // per round
	ladder     [][]stepResult // per round, per step
	primed     [][]byte       // round 0's priming response per hot program
	samples    map[int][][]byte
	attempted  int
	failed     int
	problems   []string
	err        error
}

func newServeRun(name string, seed int64, seconds float64, rounds int, bins binaries, tmp string) (*serveRun, error) {
	s := &serveRun{name: name, spec: serveSpecs[name], seed: seed, seconds: seconds, rounds: rounds,
		bins: bins, tmp: tmp, samples: map[int][][]byte{}}
	s.nFixed = int(s.spec.fixedRate * fixedPhase(seconds, rounds).Seconds())
	pos := s.nFixed
	for _, rate := range s.spec.ladder {
		n := int(rate * stepLength(seconds, rounds).Seconds())
		s.steps = append(s.steps, [2]int{pos, n})
		pos += n
	}
	var err error
	s.in, err = buildInputs(name, seed, s.nFixed, pos)
	return s, err
}

func (s *serveRun) body(pos int) []byte {
	if b, ok := s.in.revisits[pos]; ok {
		return b
	}
	return s.in.bodies[s.in.at[pos]]
}

// sampled says whether the fixed-phase response at pos is kept for the
// reference check: one position in checkEvery, shifted by one with every
// pass over the corpus, so that serve-cold's cycle samples every program.
func (s *serveRun) sampled(pos int) bool { return (pos+pos/s.spec.corpus)%checkEvery == 0 }

func (s *serveRun) count(shots []shot) {
	for i := range shots {
		s.attempted++
		if shots[i].failed() {
			s.failed++
			if len(s.problems) < 5 {
				s.problems = append(s.problems, fmt.Sprintf("request failed: status %d, %v", shots[i].status, shots[i].err))
			}
		}
	}
}

// start brings a fresh cluster up setups times for round r, priming
// serve-hot's cache each time, and records every set-up time; the last
// cluster stays up and is returned with the directory that holds it. The
// first cluster that stays up keeps serve-hot's priming responses for the
// reference check.
func (s *serveRun) start(r int, client *http.Client, setups int) (*cluster, string, error) {
	dir := filepath.Join(s.tmp, fmt.Sprintf("%s-round%d", s.name, r))
	for trial := 0; ; trial++ {
		last := trial == setups-1
		tdir := filepath.Join(dir, strconv.Itoa(trial))
		if err := os.MkdirAll(tdir, 0o755); err != nil {
			return nil, dir, err
		}
		t0 := time.Now()
		c, err := startCluster(s.bins, tdir, s.spec.disk)
		if err != nil {
			return nil, dir, err
		}
		if s.name == wServeHot {
			keep := last && s.primed == nil
			for i, body := range s.in.bodies {
				status, resp, err := post(client, c.routerURL, body, keep)
				s.attempted++
				if err != nil || status != http.StatusOK {
					s.failed++
					c.stop()
					return nil, dir, fmt.Errorf("priming %s: status %d, %v", s.in.progs[i].Name, status, err)
				}
				if keep {
					s.primed = append(s.primed, resp)
				}
			}
		}
		s.setup = append(s.setup, time.Since(t0).Seconds())
		if last {
			return c, dir, nil
		}
		client.CloseIdleConnections()
		if err := c.stop(); err != nil {
			return nil, dir, err
		}
	}
}

// round runs one round: set-up, then the fixed-rate phase.
func (s *serveRun) round(r int) {
	if s.err != nil {
		return
	}
	client := newClient()
	defer client.CloseIdleConnections()
	c, dir, err := s.start(r, client, serveSetups)
	defer os.RemoveAll(dir)
	if err != nil {
		s.err = err
		return
	}

	fixed := openLoop(client, c.routerURL, s.nFixed, s.spec.fixedRate, s.body, s.sampled)
	s.count(fixed)
	for i := range fixed {
		if fixed[i].body != nil {
			s.samples[i] = append(s.samples[i], fixed[i].body)
			fixed[i].body = nil
		}
	}
	s.fixed = append(s.fixed, fixed)
	s.rss = append(s.rss, c.rssMB())
	if err := c.stop(); err != nil {
		s.err = err
	}
}

// climb runs round r's SLO ladder on a cluster of its own. Ladders run
// after every fixed-rate phase: their top steps overload the cluster, and
// the backlog, garbage and disk writes they leave behind must not precede
// a measured phase.
func (s *serveRun) climb(r int) {
	if s.err != nil {
		return
	}
	client := newClient()
	defer client.CloseIdleConnections()
	c, dir, err := s.start(r, client, 1)
	defer os.RemoveAll(dir)
	if err != nil {
		s.err = err
		return
	}
	steps := make([]stepResult, len(s.spec.ladder))
	for k, rate := range s.spec.ladder {
		base, n := s.steps[k][0], s.steps[k][1]
		shots := openLoop(client, c.routerURL, n, rate,
			func(i int) []byte { return s.body(base + i) }, func(int) bool { return false })
		s.count(shots)
		steps[k] = evalStep(shots, rate, s.spec.limitMS)
	}
	s.ladder = append(s.ladder, steps)
	if err := c.stop(); err != nil {
		s.err = err
	}
}

// finish pools the rounds into the workload's result.
func (s *serveRun) finish() workloadResult {
	w := workloadResult{Workload: s.name, Correct: true, Valid: true, Metrics: map[string]metricValue{},
		Attempted: s.attempted, Failed: s.failed}
	if s.attempted > 0 {
		w.FailRatio = float64(s.failed) / float64(s.attempted)
	}
	for _, p := range s.problems {
		w.problem("%s", p)
	}
	if s.err != nil {
		w.problem("%v", s.err)
		return w
	}
	s.check(&w)

	// A program's served latency is the fastest tenth of its fixed-rate
	// requests' latencies over all rounds, as a batch program's cost is the
	// fastest tenth of its compiles (see fastShare), and the metrics come
	// from those costs the way batchRates derives the batch ones. The
	// latencies pooled over every request are printed beside them.
	var lat, late, wait, roundP50, roundP90, roundFn []float64
	pooled := make([][]float64, len(s.in.progs))
	for _, shots := range s.fixed {
		perRound := make([][]float64, len(s.in.progs))
		for i := range shots {
			l := shots[i].latencyMS()
			lat = append(lat, l)
			perRound[s.in.at[i]] = append(perRound[s.in.at[i]], l)
			pooled[s.in.at[i]] = append(pooled[s.in.at[i]], l)
			late = append(late, float64(shots[i].late)/1e3)
			wait = append(wait, float64(shots[i].wait)/1e3)
		}
		fn, costs := batchRates(s.in.funcs, perRound)
		roundFn = append(roundFn, fn)
		roundP50 = append(roundP50, percentile(costs, 0.5))
		roundP90 = append(roundP90, percentile(costs, 0.9))
	}
	fn, costs := batchRates(s.in.funcs, pooled)
	w.set("setup_s", median(s.setup), s.setup)
	w.set("fn_per_s", fn, roundFn)
	w.set("p50_ms", percentile(costs, 0.5), roundP50)
	w.set("p90_ms", percentile(costs, 0.9), roundP90)
	w.set("peak_rss_mb", median(s.rss), s.rss)
	p50 := percentile(lat, 0.5)
	w.diag("pooled_p50_ms", p50)
	w.diag("pooled_p90_ms", percentile(lat, 0.9))
	w.diag("pooled_p99_ms", percentile(lat, 0.99))
	w.diag("latency_samples", float64(len(lat)))
	w.diag("programs", float64(len(costs)))
	lateP90 := percentile(late, 0.9)
	w.diag("client_late_us_p90", lateP90)
	w.diag("client_conn_wait_us_p90", percentile(wait, 0.9))
	if lateP90 > 100*p50 { // 10% of p50, in microseconds
		w.Valid = false
		w.Notes = append(w.Notes, fmt.Sprintf("generator lateness p90 %.0f us exceeds 10%% of p50 %.3f ms", lateP90, p50))
	}

	// A round's SLO rate is the measured completion rate of the highest
	// fixed rate, the fixed-rate phase's included, whose phase met the
	// SLO; the median round reports it. A lower step failing does not cap
	// a round: a short stall (a neighbour's burst, an fsync on a busy disk)
	// can sink one step at any rate, and near capacity the backlog it
	// leaves drains slowly. The rate is printed, not gated: on a shared
	// 2-vCPU VM it moved by whole ladder steps between seeded runs (see
	// README.md).
	limit := s.spec.limitMS
	var sloRounds []float64
	for r, shots := range s.fixed {
		best := 0.0
		if st := evalStep(shots, s.spec.fixedRate, limit); st.pass(limit) {
			best = st.rate()
		}
		for _, st := range s.ladder[r] { // rates ascend, all above the fixed rate
			if st.pass(limit) {
				best = st.rate()
			}
		}
		sloRounds = append(sloRounds, best)
	}
	for k, rate := range s.spec.ladder {
		row := ladderStep{Rate: rate, P90MS: math.Inf(1), Rounds: len(s.ladder)}
		for _, steps := range s.ladder {
			st := steps[k]
			row.Sent += st.sent
			row.Failed += st.failed
			row.P90MS = math.Min(row.P90MS, percentile(st.lat, 0.9))
			if st.pass(limit) {
				row.Passed++
			}
		}
		row.P90MS = finite(row.P90MS)
		w.Ladder = append(w.Ladder, row)
	}
	w.diag("slo_req_per_s", median(sloRounds))
	return w
}

// check holds served outcomes against the reference interpreter:
// serve-hot's every distinct program (its priming response) and, for
// both workloads, every checkEvery-th fixed-phase response of every
// round. memops_removed_pct comes from the distinct programs checked.
func (s *serveRun) check(w *workloadResult) {
	refs := map[int]observed{}
	ref := func(prog int) (observed, bool) {
		if o, ok := refs[prog]; ok {
			return o, true
		}
		o, err := referenceBefore(s.in.progs[prog])
		if err != nil {
			w.problem("%s: reference run: %v", s.in.progs[prog].Name, err)
			return o, false
		}
		refs[prog] = o
		return o, true
	}
	var removed []float64
	judgeServed := func(prog int, body []byte, count bool) {
		p := s.in.progs[prog]
		o, ok := ref(prog)
		if !ok {
			return
		}
		got, dynBefore, err := decodeServed(body)
		if err != nil {
			w.problem("%s: %v", p.Name, err)
			return
		}
		if d := firstDiff(o, got); d != "" {
			w.problem("%s: served outcome: %s\n%s", p.Name, d, indent(p.Src))
		} else if dynBefore != o.MemOps {
			w.problem("%s: served %d dynamic memory operations before promotion, reference %d", p.Name, dynBefore, o.MemOps)
		}
		if count && o.MemOps > 0 {
			removed = append(removed, removedPct(o.MemOps, got.MemOps))
		}
	}
	positions := make([]int, 0, len(s.samples))
	for pos := range s.samples {
		positions = append(positions, pos)
	}
	sort.Ints(positions)
	checked := 0
	if s.name == wServeHot {
		for prog, body := range s.primed {
			judgeServed(prog, body, true)
			checked++
		}
		for _, pos := range positions {
			want, err := servedOutcome(s.primed[s.in.at[pos]])
			for _, b := range s.samples[pos] {
				got, gerr := servedOutcome(b)
				if err != nil || gerr != nil || !bytes.Equal(want, got) {
					w.problem("%s: response at position %d differs from the primed outcome", s.in.progs[s.in.at[pos]].Name, pos)
				}
			}
		}
	} else {
		counted := map[int]bool{}
		for _, pos := range positions {
			prog := s.in.at[pos]
			for _, b := range s.samples[pos] {
				judgeServed(prog, b, !counted[prog])
				counted[prog] = true
				checked++
			}
		}
	}
	w.diag("checked_responses", float64(checked))
	w.memops(removed)
}

func servedOutcome(body []byte) (json.RawMessage, error) {
	var resp server.PromoteResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return resp.Outcome, nil
}

// decodeServed extracts a served outcome's observables and its
// measure-before dynamic count.
func decodeServed(body []byte) (observed, int64, error) {
	raw, err := servedOutcome(body)
	if err != nil {
		return observed{}, 0, err
	}
	var o report.OutcomeJSON
	if err := json.Unmarshal(raw, &o); err != nil {
		return observed{}, 0, fmt.Errorf("decoding outcome: %w", err)
	}
	obs, err := observeOutcome(o)
	if err != nil {
		return observed{}, 0, err
	}
	if o.DynBefore == nil {
		return observed{}, 0, fmt.Errorf("outcome carries no measure-before counts")
	}
	return obs, o.DynBefore.Loads + o.DynBefore.Stores, nil
}
