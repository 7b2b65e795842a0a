// Command rpserved is the long-running promotion service: it accepts
// mini-C programs plus pipeline options over HTTP/JSON and serves
// structured promotion outcomes from a bounded worker pool behind a
// content-addressed result cache.
//
// Usage:
//
//	rpserved -addr :8080 -server-workers 4 -queue 8 -cache 1024
//	rpserved -addr 127.0.0.1:0 -port-file rpserved.port   # ephemeral port
//	rpserved -cache-dir /var/cache/rpserved -rate-rps 50  # durable + rate limited
//
// Endpoints:
//
//	POST /v1/promote   source + options → outcome JSON (see internal/server)
//	GET  /healthz      200 while alive, 503 while draining
//	GET  /readyz       200 while accepting load, 503 while draining or saturated
//	GET  /metrics      Prometheus text counters
//
// On SIGTERM/SIGINT the server stops accepting connections, drains
// in-flight requests (bounded by -drain-timeout), and exits 0.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/faults"
	"repro/internal/frontdoor"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		portFile     = flag.String("port-file", "", "write the bound host:port to this file once listening")
		workers      = flag.Int("server-workers", 0, "concurrent pipeline runs (0 = GOMAXPROCS)")
		queue        = flag.Int("queue", 0, "requests allowed to wait beyond the running ones (0 = 2x workers, -1 = none)")
		cacheEntries = flag.Int("cache", 0, "content-addressed result cache capacity in entries (0 = 1024, -1 = off)")
		maxSteps     = flag.Int64("max-steps", 0, "per-request interpreter step ceiling (0 = 50M)")
		maxTimeout   = flag.Duration("max-timeout", 0, "per-request interpreter wall-clock ceiling (0 = 10s)")
		pipeWorkers  = flag.Int("workers", 1, "default per-request transform worker count")
		maxSource    = flag.Int64("max-source-bytes", 0, "request body size bound (0 = 1MiB)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
		enableFaults = flag.Bool("enable-faults", false, "allow requests to inject deterministic faults (tests/chaos only)")
		cacheDir     = flag.String("cache-dir", "", "directory for the durable on-disk cache tier (empty = memory only)")
		cacheDisk    = flag.Int64("cache-disk-bytes", 0, "on-disk cache tier byte budget (0 = 256MiB, -1 = unbounded)")
		rateRPS      = flag.Float64("rate-rps", 0, "per-client admission rate in requests/sec (0 = no rate limiting)")
		rateBurst    = flag.Int("rate-burst", 0, "per-client token-bucket burst (0 = max(4, 2x rate))")
		chaosDisk    = flag.String("chaos-disk", "", "inject disk faults, e.g. read=0.3,write=0.3,checksum=0.1,slow=2ms,seed=7 (chaos drills only)")
	)
	flag.Parse()

	var diskChaos *faults.DiskInjector
	if *chaosDisk != "" {
		plan, err := faults.ParseDiskPlan(*chaosDisk)
		if err != nil {
			fatal(err)
		}
		diskChaos = faults.NewDisk(plan)
		fmt.Printf("rpserved: CHAOS MODE — injecting disk faults (%s)\n", plan)
	}

	srv, err := server.New(server.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		CacheEntries:    *cacheEntries,
		MaxSourceBytes:  *maxSource,
		MaxSteps:        *maxSteps,
		MaxTimeout:      *maxTimeout,
		PipelineWorkers: *pipeWorkers,
		EnableFaults:    *enableFaults,
		CacheDir:        *cacheDir,
		CacheDiskBytes:  *cacheDisk,
		RateLimit:       *rateRPS,
		RateBurst:       *rateBurst,
		DiskChaos:       diskChaos,
	})
	if err != nil {
		fatal(err)
	}

	if err := frontdoor.Run("rpserved", *addr, *portFile, srv.Handler(), srv.Drain, *drainTimeout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpserved:", err)
	os.Exit(1)
}
