// Command rploadgen replays a deterministic request mix against a
// running rpserved instance and measures serving throughput, latency
// percentiles, and cache hit rate.
//
// The mix is fully derived from -seed: -unique generated programs (the
// derived-seed corpus of workload.ReplayCorpusMix) visited in a
// deterministic order of -n requests, so two runs against equivalent
// servers see identical traffic whatever -c concurrency is. Because the
// mix revisits programs, a correct server serves most requests from its
// content-addressed cache — the measured hit rate and the per-program
// outcome-identity check are part of the verdict, not just the timing.
//
// Usage:
//
//	rploadgen -addr 127.0.0.1:8080 -n 512 -c 8 -unique 8 -size small
//	rploadgen -addr $(cat rpserved.port) -n 64 -qps 100 -json serve.json
//	rploadgen -addr $(cat rprouter.port) -profile hotkey -c 16
//	rploadgen -addr ... -profile spike -qps 300 -duration 60s   # soak
//
// Declarative traffic profiles (-profile, or a JSON file via
// -profile-file) bundle a request count, corpus size, Zipf mix skew
// (-zipf-s), a rate shape (-shape steady|ramp|spike|diurnal), and
// optional SLO ceilings (p99, error rate) that turn the run into a
// pass/fail experiment. Explicit flags override profile fields;
// -duration switches to soak mode, sized by the shape's average rate.
//
// A 429 (backpressure or rate limiting) is retried up to -retries times,
// honoring the server's Retry-After hint with client-side jitter, capped
// at -retry-max-wait per attempt; requests that exhaust the budget count
// as gave_up. With -outcomes the per-program outcome SHA-256 map is
// written to a file, so two runs against equivalent servers (or one
// server across a restart) can be diffed for byte identity.
//
// Exit status is non-zero when no request succeeded, any request drew a
// 5xx, two responses for the same program carried different outcomes,
// or fewer than -min-disk-hits responses came from the disk tier.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/report"
	"repro/internal/server"
	"repro/internal/workload"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:8080", "rpserved address (host:port)")
		n        = flag.Int("n", 256, "total requests to send")
		conc     = flag.Int("c", 8, "concurrent client connections")
		qps      = flag.Float64("qps", 0, "target request rate (0 = as fast as possible)")
		seed     = flag.Int64("seed", 1, "base seed for the replay corpus and request mix")
		unique   = flag.Int("unique", 8, "distinct programs in the replay corpus")
		irEvery  = flag.Int("ir-every", 0, "replace every Nth corpus entry with an imported real-IR program (0 = off)")
		size     = flag.String("size", "small", "generated program size: small, medium, or large")
		check    = flag.String("check", "off", "per-request pipeline check level")
		workers  = flag.Int("workers", 0, "per-request transform worker count (0 = server default)")
		timeout  = flag.Duration("timeout", 60*time.Second, "client-side HTTP timeout per request")
		jsonPath = flag.String("json", "", "write a machine-readable serve record to this file")

		retries      = flag.Int("retries", 3, "retry budget per request for 429 responses (0 = no retries)")
		retryMaxWait = flag.Duration("retry-max-wait", 5*time.Second, "cap on a single Retry-After backoff")
		outcomesPath = flag.String("outcomes", "", "write the per-program outcome SHA-256 map to this file")
		minDiskHits  = flag.Int("min-disk-hits", 0, "fail unless at least this many responses came from the disk tier")

		profileName  = flag.String("profile", "", "builtin traffic profile: steady, ramp, spike, diurnal, or hotkey")
		profileFile  = flag.String("profile-file", "", "JSON traffic profile file (overrides -profile)")
		shape        = flag.String("shape", "", "rate curve when pacing: steady, ramp, spike, or diurnal")
		zipfS        = flag.Float64("zipf-s", 0, "Zipf skew for the request mix (0 = uniform)")
		baseQPS      = flag.Float64("base-qps", 0, "off-peak rate for shaped pacing (0 = qps/4)")
		duration     = flag.Duration("duration", 0, "soak mode: run this long at the shape's average rate instead of -n requests")
		minCollapsed = flag.Int("min-collapsed", 0, "fail unless at least this many responses were collapsed singleflight waits")
		clientID     = flag.String("client-id", "", "X-Client-ID header value (tenant identity at the router)")
		note         = flag.String("note", "", "free-form annotation recorded in the JSON record")
	)
	flag.Parse()

	// The effective profile: an explicit -profile/-profile-file supplies
	// defaults; flags the caller set on the command line override it.
	// Without a profile the flags alone describe an ad-hoc one.
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	prof := workload.Profile{
		Name: "adhoc", Requests: *n, Unique: *unique, Size: *size,
		Shape: *shape, QPS: *qps, BaseQPS: *baseQPS, ZipfS: *zipfS,
		DurationS: duration.Seconds(),
	}
	if *profileName != "" || *profileFile != "" {
		var err error
		if *profileFile != "" {
			prof, err = workload.LoadProfile(*profileFile)
		} else {
			prof, err = workload.LookupProfile(*profileName)
		}
		if err != nil {
			fatal(err)
		}
		if setFlags["n"] {
			prof.Requests = *n
		}
		if setFlags["unique"] {
			prof.Unique = *unique
		}
		if setFlags["size"] {
			prof.Size = *size
		}
		if setFlags["shape"] {
			prof.Shape = *shape
		}
		if setFlags["qps"] {
			prof.QPS = *qps
		}
		if setFlags["base-qps"] {
			prof.BaseQPS = *baseQPS
		}
		if setFlags["zipf-s"] {
			prof.ZipfS = *zipfS
		}
		if setFlags["duration"] {
			prof.DurationS = duration.Seconds()
		}
	}
	if err := prof.Validate(); err != nil {
		fatal(err)
	}
	*n = prof.EffectiveRequests()
	*unique = prof.Unique
	*size = prof.Size
	if *n < 1 || *conc < 1 {
		fatal(fmt.Errorf("need -n >= 1 and -c >= 1"))
	}
	corpus, err := workload.ReplayCorpusMix(*seed, *unique, *size, *irEvery)
	if err != nil {
		fatal(err)
	}
	langMix := workload.MixComposition(corpus)
	bodies := make([][]byte, len(corpus))
	for i, w := range corpus {
		body, err := json.Marshal(server.PromoteRequest{
			Source: w.Src,
			Options: server.RequestOptions{
				Lang:    w.Lang,
				Check:   *check,
				Workers: *workers,
			},
		})
		if err != nil {
			fatal(err)
		}
		bodies[i] = body
	}
	mix := prof.Mix(*seed, *n)
	url := "http://" + strings.TrimPrefix(*addr, "http://") + "/v1/promote"
	client := &http.Client{Timeout: *timeout}

	type result struct {
		program   int
		status    int
		cache     string
		latency   time.Duration
		outcome   []byte
		transport error
		retries   int  // 429 retry attempts consumed
		gaveUp    bool // still 429 after exhausting the retry budget
	}
	results := make([]result, *n)
	jobs := make(chan int)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < *conc; c++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			// Per-worker rng for backoff jitter: reproducible per seed,
			// no lock contention across workers.
			rng := rand.New(rand.NewSource(*seed + int64(worker)))
			for i := range jobs {
				r := result{program: mix[i]}
				for attempt := 0; ; attempt++ {
					req, rerr := http.NewRequest(http.MethodPost, url, bytes.NewReader(bodies[r.program]))
					if rerr != nil {
						r.transport = rerr
						break
					}
					req.Header.Set("Content-Type", "application/json")
					if *clientID != "" {
						req.Header.Set("X-Client-ID", *clientID)
					}
					t0 := time.Now()
					resp, err := client.Do(req)
					r.latency = time.Since(t0)
					if err != nil {
						r.transport = err
						break
					}
					body, rerr := io.ReadAll(resp.Body)
					resp.Body.Close()
					r.status = resp.StatusCode
					if rerr != nil {
						r.transport = rerr
						break
					}
					if resp.StatusCode == http.StatusTooManyRequests && attempt < *retries {
						// Honor the server's hint, jittered so retried
						// clients don't re-collide, bounded so a hostile
						// hint can't stall the run.
						wait := retryAfter(resp.Header.Get("Retry-After"))
						wait += time.Duration(rng.Int63n(int64(250 * time.Millisecond)))
						if wait > *retryMaxWait {
							wait = *retryMaxWait
						}
						time.Sleep(wait)
						r.retries++
						continue
					}
					if resp.StatusCode == http.StatusTooManyRequests && *retries > 0 {
						r.gaveUp = true
					}
					if resp.StatusCode == http.StatusOK {
						var pr server.PromoteResponse
						if uerr := json.Unmarshal(body, &pr); uerr != nil {
							r.transport = uerr
						} else {
							r.cache = pr.Serving.Cache
							r.outcome = pr.Outcome
						}
					}
					break
				}
				results[i] = r
			}
		}(c)
	}
	// Dispatcher-side pacing: request i is released at an absolute
	// schedule accumulated from the profile's rate curve, so ramps,
	// spikes, and diurnal swings come out as wall-clock rate changes
	// while per-request program assignment stays deterministic (request
	// i always carries program mix[i]). Unpaced profiles release as
	// fast as the workers drain.
	next := time.Now()
	for i := 0; i < *n; i++ {
		frac := 0.0
		if *n > 1 {
			frac = float64(i) / float64(*n-1)
		}
		if rate := prof.RateAt(frac); rate > 0 {
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			next = next.Add(time.Duration(float64(time.Second) / rate))
		}
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)

	var (
		ok, rejected, clientErrs, serverErrs, timeouts, transportErrs int
		hits, diskHits, collapsed, misses, mismatches                 int
		totalRetries, gaveUp                                          int
		latencies                                                     []time.Duration
		canonical                                                     = make(map[int][]byte, *unique)
	)
	for i, r := range results {
		totalRetries += r.retries
		if r.gaveUp {
			gaveUp++
		}
		switch {
		case r.transport != nil:
			transportErrs++
			fmt.Printf("request %d (program %d): %v\n", i, r.program, r.transport)
		case r.status == http.StatusOK:
			ok++
			latencies = append(latencies, r.latency)
			switch r.cache {
			case "hit":
				hits++
			case "disk":
				diskHits++
			case "collapsed":
				collapsed++
			case "miss":
				misses++
			}
			if want, seen := canonical[r.program]; seen {
				if !bytes.Equal(want, r.outcome) {
					mismatches++
					fmt.Printf("request %d: program %d outcome diverged from earlier response\n", i, r.program)
				}
			} else {
				canonical[r.program] = r.outcome
			}
		case r.status == http.StatusTooManyRequests:
			rejected++
		case r.status == http.StatusRequestTimeout:
			timeouts++
		case r.status >= 500:
			serverErrs++
			fmt.Printf("request %d (program %d): HTTP %d\n", i, r.program, r.status)
		default:
			clientErrs++
			fmt.Printf("request %d (program %d): HTTP %d\n", i, r.program, r.status)
		}
	}

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	pct := func(p float64) time.Duration {
		if len(latencies) == 0 {
			return 0
		}
		idx := int(p * float64(len(latencies)-1))
		return latencies[idx]
	}
	var mean time.Duration
	for _, l := range latencies {
		mean += l
	}
	if len(latencies) > 0 {
		mean /= time.Duration(len(latencies))
	}
	throughput := float64(ok) / elapsed.Seconds()
	hitRate := 0.0
	if ok > 0 {
		// Anything not recomputed from scratch counts as served from
		// cache: memory hit, disk hit, or a collapsed singleflight wait.
		hitRate = float64(hits+diskHits+collapsed) / float64(ok)
	}
	// Error rate for the SLO: everything the client could not turn into
	// a served response — 5xx, transport failures, timeouts, and 429s
	// that exhausted the retry budget. Plain 429s that retried into a
	// 200 are backpressure working, not errors.
	errorRate := float64(serverErrs+transportErrs+timeouts+gaveUp+clientErrs) / float64(*n)
	sloOK := true
	var sloViolations []string
	if prof.SLO.P99MS > 0 && ms(pct(0.99)) > prof.SLO.P99MS {
		sloOK = false
		sloViolations = append(sloViolations,
			fmt.Sprintf("p99 %.1fms > ceiling %.1fms", ms(pct(0.99)), prof.SLO.P99MS))
	}
	if prof.SLO.MaxErrorRate > 0 && errorRate > prof.SLO.MaxErrorRate {
		sloOK = false
		sloViolations = append(sloViolations,
			fmt.Sprintf("error rate %.4f > ceiling %.4f", errorRate, prof.SLO.MaxErrorRate))
	}

	fmt.Printf("rploadgen: %d requests (%d programs, seed %d, size %s), -c %d, profile %s", *n, *unique, *seed, *size, *conc, prof.Name)
	if prof.Shape != "" && prof.Shape != "steady" {
		fmt.Printf(", shape %s", prof.Shape)
	}
	if prof.ZipfS > 0 {
		fmt.Printf(", zipf %.2f", prof.ZipfS)
	}
	if prof.QPS > 0 {
		fmt.Printf(", peak %.0f qps", prof.QPS)
	}
	fmt.Println()
	fmt.Printf("elapsed %v  throughput %.1f req/s  ok %d  rejected %d  timeouts %d  client-err %d  server-err %d  transport-err %d\n",
		elapsed.Round(time.Millisecond), throughput, ok, rejected, timeouts, clientErrs, serverErrs, transportErrs)
	fmt.Printf("retries %d  gave-up %d\n", totalRetries, gaveUp)
	fmt.Printf("latency p50 %v  p95 %v  p99 %v  mean %v\n",
		pct(0.50).Round(time.Microsecond), pct(0.95).Round(time.Microsecond),
		pct(0.99).Round(time.Microsecond), mean.Round(time.Microsecond))
	fmt.Printf("cache: %d memory, %d disk, %d collapsed, %d misses (hit rate %.1f%%)  outcome mismatches: %d\n",
		hits, diskHits, collapsed, misses, hitRate*100, mismatches)

	if len(sloViolations) > 0 {
		fmt.Printf("SLO violated: %s\n", strings.Join(sloViolations, "; "))
	}

	if *jsonPath != "" {
		rec := serveRecord{
			SchemaVersion:     report.SchemaVersion,
			Addr:              *addr,
			Requests:          *n,
			Concurrency:       *conc,
			TargetQPS:         prof.QPS,
			Unique:            *unique,
			Seed:              *seed,
			Size:              *size,
			Mix:               langMix,
			Check:             *check,
			Profile:           prof.Name,
			Shape:             prof.Shape,
			ZipfS:             prof.ZipfS,
			BaseQPS:           prof.BaseQPS,
			DurationS:         prof.DurationS,
			ErrorRate:         errorRate,
			SLOOK:             sloOK,
			Note:              *note,
			ElapsedMS:         float64(elapsed.Microseconds()) / 1000,
			ThroughputRPS:     throughput,
			P50MS:             ms(pct(0.50)),
			P95MS:             ms(pct(0.95)),
			P99MS:             ms(pct(0.99)),
			MeanMS:            ms(mean),
			OK:                ok,
			Rejected:          rejected,
			Retries:           totalRetries,
			GaveUp:            gaveUp,
			Timeouts:          timeouts,
			ClientErrors:      clientErrs,
			ServerErrors:      serverErrs,
			TransportErrors:   transportErrs,
			CacheHits:         hits,
			DiskHits:          diskHits,
			Collapsed:         collapsed,
			CacheMisses:       misses,
			CacheHitRate:      hitRate,
			OutcomeMismatches: mismatches,
		}
		data, err := json.MarshalIndent(rec, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*jsonPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}

	if *outcomesPath != "" {
		// One SHA-256 per program, keyed by program index. Two runs
		// against equivalent servers must produce identical files —
		// that's the chaos harness's byte-identity check.
		fps := make(map[string]string, len(canonical))
		for prog, outcome := range canonical {
			sum := sha256.Sum256(outcome)
			fps[strconv.Itoa(prog)] = hex.EncodeToString(sum[:])
		}
		data, err := json.MarshalIndent(fps, "", "  ")
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(*outcomesPath, append(data, '\n'), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", *outcomesPath)
	}

	if ok == 0 {
		fatal(fmt.Errorf("no request succeeded"))
	}
	if serverErrs > 0 || mismatches > 0 || transportErrs > 0 {
		fatal(fmt.Errorf("%d server errors, %d outcome mismatches, %d transport errors",
			serverErrs, mismatches, transportErrs))
	}
	if diskHits < *minDiskHits {
		fatal(fmt.Errorf("only %d disk-tier hits, need %d (cold tier did not survive)", diskHits, *minDiskHits))
	}
	if collapsed < *minCollapsed {
		fatal(fmt.Errorf("only %d collapsed singleflight waits, need %d (concurrent identical misses did not collapse)", collapsed, *minCollapsed))
	}
	if !sloOK {
		fatal(fmt.Errorf("SLO violated: %s", strings.Join(sloViolations, "; ")))
	}
}

// retryAfter parses a Retry-After header in whole seconds; a missing or
// malformed header falls back to a short fixed delay.
func retryAfter(h string) time.Duration {
	if secs, err := strconv.Atoi(strings.TrimSpace(h)); err == nil && secs >= 0 {
		return time.Duration(secs) * time.Second
	}
	return 100 * time.Millisecond
}

// serveRecord is the machine-readable -json record shape, stamped with
// the shared report.SchemaVersion.
type serveRecord struct {
	SchemaVersion     int            `json:"schema_version"`
	Addr              string         `json:"addr"`
	Requests          int            `json:"requests"`
	Concurrency       int            `json:"concurrency"`
	TargetQPS         float64        `json:"target_qps"`
	Unique            int            `json:"unique_programs"`
	Seed              int64          `json:"seed"`
	Size              string         `json:"size"`
	Mix               map[string]int `json:"mix"` // corpus entries by input language
	Check             string         `json:"check"`
	Profile           string         `json:"profile,omitempty"`
	Shape             string         `json:"shape,omitempty"`
	ZipfS             float64        `json:"zipf_s,omitempty"`
	BaseQPS           float64        `json:"base_qps,omitempty"`
	DurationS         float64        `json:"duration_s,omitempty"`
	ErrorRate         float64        `json:"error_rate"`
	SLOOK             bool           `json:"slo_ok"`
	Note              string         `json:"note,omitempty"`
	ElapsedMS         float64        `json:"elapsed_ms"`
	ThroughputRPS     float64        `json:"throughput_rps"`
	P50MS             float64        `json:"p50_ms"`
	P95MS             float64        `json:"p95_ms"`
	P99MS             float64        `json:"p99_ms"`
	MeanMS            float64        `json:"mean_ms"`
	OK                int            `json:"ok"`
	Rejected          int            `json:"rejected"`
	Retries           int            `json:"retries"`
	GaveUp            int            `json:"gave_up"`
	Timeouts          int            `json:"timeouts"`
	ClientErrors      int            `json:"client_errors"`
	ServerErrors      int            `json:"server_errors"`
	TransportErrors   int            `json:"transport_errors"`
	CacheHits         int            `json:"cache_hits"`
	DiskHits          int            `json:"disk_hits"`
	Collapsed         int            `json:"collapsed"`
	CacheMisses       int            `json:"cache_misses"`
	CacheHitRate      float64        `json:"cache_hit_rate"`
	OutcomeMismatches int            `json:"outcome_mismatches"`
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rploadgen:", err)
	os.Exit(1)
}
