// Command rprouter is the cluster front door for a fleet of rpserved
// replicas: it places each request on a consistent-hash ring keyed by
// the same content-addressed cache key the replicas compute, hedges
// tail-latency requests against the key's next replica, enforces
// per-tenant quotas, and keeps the ring healthy via /readyz probes.
//
// Usage:
//
//	rprouter -replicas 127.0.0.1:9001,127.0.0.1:9002 -addr :8080
//	rprouter -replicas ... -quota-rps 50         # per-tenant token bucket
//
// The router's tuning is fixed (see internal/router): 128 virtual
// nodes per replica, a bounded-load factor of 1.25, a hedge delay
// derived from the replicas' p95 and clamped to [2ms, 1s], and a
// /readyz probe every 250 ms that takes a replica out after 2 failures
// and back after 1 success.
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
)

// options are rprouter's command-line settings.
type options struct {
	addr, portFile, replicas string
	quotaRPS                 float64
	quotaBurst               int
	drainTimeout             time.Duration
}

// flags registers every rprouter flag on a new FlagSet. main parses
// the command line with it; main_test.go checks its inventory.
func flags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("rprouter", flag.ExitOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address (host:0 picks an ephemeral port)")
	fs.StringVar(&o.portFile, "port-file", "", "write the bound host:port to this file once listening")
	fs.StringVar(&o.replicas, "replicas", "", "comma-separated replica host:port list (required)")
	fs.Float64Var(&o.quotaRPS, "quota-rps", 0, "per-tenant admission rate in requests/sec (0 = no quotas)")
	fs.IntVar(&o.quotaBurst, "quota-burst", 0, "per-tenant token-bucket burst (0 = max(4, 2x rate))")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	return fs, o
}

func main() {
	fs, o := flags()
	fs.Parse(os.Args[1:])

	var list []string
	for _, r := range strings.Split(o.replicas, ",") {
		if r = strings.TrimSpace(r); r != "" {
			list = append(list, r)
		}
	}
	if len(list) == 0 {
		fatal(errors.New("-replicas is required (comma-separated host:port list)"))
	}

	rt, err := router.New(router.Config{
		Replicas:   list,
		QuotaRPS:   o.quotaRPS,
		QuotaBurst: o.quotaBurst,
	})
	if err != nil {
		fatal(err)
	}
	rt.Start()
	fmt.Printf("rprouter: routing to %d replicas\n", len(list))
	if err := frontdoor.Run("rprouter", o.addr, o.portFile, rt.Handler(), rt.Drain, o.drainTimeout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rprouter:", err)
	os.Exit(1)
}
