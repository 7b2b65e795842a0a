// Command rprouter is the cluster front door for a fleet of rpserved
// replicas: it places each request on a consistent-hash ring keyed by
// the same content-addressed cache key the replicas compute, hedges
// tail-latency requests against the key's next replica, enforces
// per-tenant quotas, and keeps the ring healthy via /readyz probes.
//
// Usage:
//
//	rprouter -replicas 127.0.0.1:9001,127.0.0.1:9002 -addr :8080
//	rprouter -replicas ... -hedge-delay 0        # derive delay from replica p95
//	rprouter -replicas ... -quota-rps 50         # per-tenant token bucket
//
// The key-ceiling flags (-workers, -max-steps, -max-timeout) MUST
// match the replicas' flags: they feed the option-defaulting step of
// the cache key, and a mismatch silently degrades cache locality
// (requests still succeed — placement just stops lining up with the
// replicas' own keys).
//
// Endpoints:
//
//	POST /v1/promote   proxied to the key's replica (see internal/router)
//	GET  /healthz      200 while alive
//	GET  /readyz       200 while >=1 replica is healthy and not draining
//	GET  /metrics      aggregated Prometheus text (cluster + per-replica)
//	GET  /v1/cluster   JSON ring/health/load view for operators
//
// On SIGTERM/SIGINT the router stops accepting connections, drains
// in-flight proxied requests (bounded by -drain-timeout), and exits 0.
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/frontdoor"
	"repro/internal/router"
	"repro/internal/server"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address (host:0 picks an ephemeral port)")
		portFile     = flag.String("port-file", "", "write the bound host:port to this file once listening")
		replicas     = flag.String("replicas", "", "comma-separated replica host:port list (required)")
		vnodes       = flag.Int("vnodes", 0, "virtual nodes per replica on the hash ring (0 = 128)")
		loadFactor   = flag.Float64("load-factor", 0, "bounded-load factor: spill a key off its primary above factor x mean inflight (0 = 1.25)")
		hedgeDelay   = flag.Duration("hedge-delay", 0, "fixed hedge delay; 0 derives it from replica p95, negative disables hedging")
		hedgeMin     = flag.Duration("hedge-min", 0, "floor for the derived hedge delay (0 = 2ms)")
		hedgeMax     = flag.Duration("hedge-max", 0, "ceiling for the derived hedge delay (0 = 1s)")
		quotaRPS     = flag.Float64("quota-rps", 0, "per-tenant admission rate in requests/sec (0 = no quotas)")
		quotaBurst   = flag.Int("quota-burst", 0, "per-tenant token-bucket burst (0 = max(4, 2x rate))")
		probeEvery   = flag.Duration("probe-interval", 0, "replica /readyz probe interval (0 = 250ms)")
		probeTimeout = flag.Duration("probe-timeout", 0, "per-probe timeout (0 = 1s)")
		failThresh   = flag.Int("fail-threshold", 0, "consecutive failed probes before a replica leaves the ring (0 = 2)")
		okThresh     = flag.Int("ok-threshold", 0, "consecutive ok probes before a demoted replica rejoins (0 = 1)")
		pipeWorkers  = flag.Int("workers", 1, "replicas' default per-request transform worker count (key ceiling)")
		maxSteps     = flag.Int64("max-steps", 0, "replicas' interpreter step ceiling (key ceiling, 0 = 50M)")
		maxTimeout   = flag.Duration("max-timeout", 0, "replicas' interpreter wall-clock ceiling (key ceiling, 0 = 10s)")
		maxSource    = flag.Int64("max-source-bytes", 0, "request body size bound (0 = 1MiB)")
		proxyTimeout = flag.Duration("proxy-timeout", 0, "end-to-end deadline for one proxied request (0 = 60s)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	)
	flag.Parse()

	var list []string
	for _, r := range strings.Split(*replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			list = append(list, r)
		}
	}
	if len(list) == 0 {
		fatal(errors.New("-replicas is required (comma-separated host:port list)"))
	}

	rt, err := router.New(router.Config{
		Replicas:       list,
		VNodes:         *vnodes,
		LoadFactor:     *loadFactor,
		HedgeDelay:     *hedgeDelay,
		HedgeMin:       *hedgeMin,
		HedgeMax:       *hedgeMax,
		QuotaRPS:       *quotaRPS,
		QuotaBurst:     *quotaBurst,
		ProbeInterval:  *probeEvery,
		ProbeTimeout:   *probeTimeout,
		FailThreshold:  *failThresh,
		OkThreshold:    *okThresh,
		MaxSourceBytes: *maxSource,
		ProxyTimeout:   *proxyTimeout,
		Ceilings: server.KeyCeilings{
			MaxSteps:        *maxSteps,
			MaxTimeout:      *maxTimeout,
			PipelineWorkers: *pipeWorkers,
		},
	})
	if err != nil {
		fatal(err)
	}
	rt.Start()
	fmt.Printf("rprouter: routing to %d replicas\n", len(list))
	if err := frontdoor.Run("rprouter", *addr, *portFile, rt.Handler(), rt.Drain, *drainTimeout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rprouter:", err)
	os.Exit(1)
}
