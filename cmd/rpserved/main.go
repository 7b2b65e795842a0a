// Command rpserved is the long-running promotion service: it accepts
// mini-C programs plus pipeline options over HTTP/JSON and serves
// structured promotion outcomes from a bounded worker pool behind a
// content-addressed result cache.
//
// Usage:
//
//	rpserved -addr :8080 -queue 8
//	rpserved -addr 127.0.0.1:0 -port-file rpserved.port   # ephemeral port
//	rpserved -cache-dir /var/cache/rpserved -rate-rps 50  # durable + rate limited
//
// The pool runs GOMAXPROCS pipelines at once (set the GOMAXPROCS
// environment variable to change it). The memory tier holds 1024
// outcomes, the disk tier 256 MiB, and a request body at most 1 MiB.
// A request's interpreter runs at most 50 million steps and 10 s.
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

// options are rpserved's command-line settings.
type options struct {
	addr, portFile, cacheDir, chaosDisk string
	queue, rateBurst                    int
	rateRPS                             float64
	drainTimeout                        time.Duration
}

// flags registers every rpserved flag on a new FlagSet. main parses
// the command line with it; main_test.go checks its inventory.
func flags() (*flag.FlagSet, *options) {
	fs := flag.NewFlagSet("rpserved", flag.ExitOnError)
	o := &options{}
	fs.StringVar(&o.addr, "addr", ":8080", "listen address (host:0 picks an ephemeral port)")
	fs.StringVar(&o.portFile, "port-file", "", "write the bound host:port to this file once listening")
	fs.IntVar(&o.queue, "queue", 0, "requests allowed to wait beyond the running ones (0 = 2x GOMAXPROCS, -1 = none)")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "how long to wait for in-flight requests on shutdown")
	fs.StringVar(&o.cacheDir, "cache-dir", "", "directory for the durable on-disk cache tier (empty = memory only)")
	fs.Float64Var(&o.rateRPS, "rate-rps", 0, "per-client admission rate in requests/sec (0 = no rate limiting)")
	fs.IntVar(&o.rateBurst, "rate-burst", 0, "per-client token-bucket burst (0 = max(4, 2x rate))")
	fs.StringVar(&o.chaosDisk, "chaos-disk", "", "inject disk faults, e.g. read=0.3,write=0.3,checksum=0.1,slow=2ms,seed=7 (chaos drills only)")
	return fs, o
}

func main() {
	fs, o := flags()
	fs.Parse(os.Args[1:])

	var diskChaos *faults.DiskInjector
	if o.chaosDisk != "" {
		plan, err := faults.ParseDiskPlan(o.chaosDisk)
		if err != nil {
			fatal(err)
		}
		diskChaos = faults.NewDisk(plan)
		fmt.Printf("rpserved: CHAOS MODE — injecting disk faults (%s)\n", plan)
	}

	srv, err := server.New(server.Config{
		QueueDepth: o.queue,
		CacheDir:   o.cacheDir,
		RateLimit:  o.rateRPS,
		RateBurst:  o.rateBurst,
		DiskChaos:  diskChaos,
	})
	if err != nil {
		fatal(err)
	}

	if err := frontdoor.Run("rpserved", o.addr, o.portFile, srv.Handler(), srv.Drain, o.drainTimeout); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "rpserved:", err)
	os.Exit(1)
}
