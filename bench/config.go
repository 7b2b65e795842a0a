package main

// The benchmark's fixed settings. Everything that shapes the offered work
// lives here as a constant, never derived at run time, so two commits
// measured with the same seed receive exactly the same inputs and load.

const (
	wSuite     = "suite"
	wGenStatic = "gen-static"
	wServeHot  = "serve-hot"
	wServeCold = "serve-cold"
)

// workloadNames lists the workloads in the order round 0 of a full run
// starts them; later rounds rotate the order so that a noisy minute on a
// shared host lands on every workload.
var workloadNames = []string{wSuite, wGenStatic, wServeHot, wServeCold}

// gatedWorkloads are the workloads BENCHMARK.json lists, whose end-to-end
// metrics gate a change. serve-hot runs and prints like the others but is
// left out: its sub-millisecond requests cross three processes on two
// vCPUs, and over ten minutes on one cluster its p50 and p90 moved by a
// quarter with the host's state, at every load shape tried, closed loop
// included; no bound the benchmark may set holds that.
var gatedWorkloads = []string{wSuite, wGenStatic, wServeCold}

// workloadWhy is the one-line reason each workload exists (BENCHMARK.json
// carries the same text).
var workloadWhy = map[string]string{
	wSuite:     "the paper's 8 SPEC-analogue programs plus 3 imported-IR programs; interpretation dominates, so interp changes show here",
	wGenStatic: "128 generated large programs on the promote-only path (static profile, no measurement); core, ssa and cfg changes show here",
	wServeHot:  "routed requests answered from the memory cache; measures router, HTTP/JSON, cache keys and the LRU, not the pipeline",
	wServeCold: "routed requests that each carry a new cache key; every request misses both cache tiers and runs the full pipeline",
}

const (
	// defaultSeconds is the measured time per workload of one run.
	defaultSeconds = 30
	// defaultRounds is how many fresh measuring processes (batch) or fresh
	// server pairs (serve) one run measures with.
	defaultRounds = 3

	// refMaxSteps bounds every reference-interpreter run. It equals the
	// serving ceiling; the largest gen-static program seen across ten
	// seeds runs about 6.7M steps.
	refMaxSteps = 50_000_000
)

// gen-static corpus: generated "large" programs with LoopMax 3, drawn by
// seed and stratified by source size. The stock large class is
// heavy-tailed (compile time grows about as size^2.4, and one program in
// a few hundred runs over 5M steps); fixed quotas per size band keep the
// corpus' cost nearly the same for every seed, which a plain draw of 48
// programs does not (its fn_per_s moved by up to 45% between seeds).
// With 256 programs the seed moved fn_per_s and the latency percentiles
// by about 3%, but a run compiled each program only about fifteen times,
// too few for the fastest tenth (see fastShare) to find the host's quiet
// moments: ten seeded runs spread 15%. 128 programs are compiled about
// thirty times each.
const (
	genLoopMax  = 3
	genMinBytes = 3000 // smallest accepted source, bytes
	genMaxBytes = 7000 // sources at or above this are skipped
	genBands    = 16   // equal-width size bands between the two
	genPerBand  = 8    // programs drawn per band
	genWarmup   = 16   // programs compiled, untimed, before timing starts
)

// serve-cold's fixed-rate corpus: coldPerBand medium programs from each
// band of estimated work between consecutive edges. A program's work is
// its source bytes plus its interpreter steps over coldStepsPerByte: over
// 4000 programs, bytes and steps weighed so explained 90% of a miss's
// pipeline time, bytes alone 30%. The edges are the 32nds of the medium
// class's work over 10,000 programs (seeds 101-110), and the top band
// stops at its 99th percentile, below a tail whose slowest program took
// 35 times the median time. The corpus so keeps the class's shape
// whatever the seed: a
// model of cost from bytes and steps puts the seed's effect on the
// corpus' p50, p90 and functions per second under 2%, against 5-10% for
// 64 programs banded by size alone and 6-15% for 64 to 250 drawn plainly.
// 64 programs let a 30 s run visit each about 35 times, so that its
// fastest tenth (see fastShare) finds the host's quiet moments.
var coldBandEdges = []int64{0, 884, 990, 1078, 1147, 1204, 1263, 1319, 1367, 1415, 1462, 1512, 1562, 1613, 1658, 1705,
	1757, 1807, 1857, 1912, 1967, 2025, 2083, 2158, 2241, 2326, 2423, 2531, 2658, 2832, 3049, 3455, 4350}

const (
	coldPerBand      = 2
	coldStepsPerByte = 38
)

// serveSpec fixes one serving workload's load shape.
type serveSpec struct {
	// corpus is the number of distinct programs the fixed-rate phase
	// sends. serve-hot requests them in a Zipf mix under one cache key
	// each; serve-cold cycles through them, each visit under a new key
	// (see coldTimeoutMS). serve-cold's ladder steps send one new program
	// per request.
	corpus int
	size   string // generated program size class
	// fixedRate is the open-loop rate of the fixed-rate phase, req/s.
	fixedRate float64
	// ladder holds the SLO ladder's absolute rates, req/s, spaced x1.1.
	// They were placed at seed 1 so that on a 2-vCPU host the first two
	// steps pass and the last one usually fails.
	ladder []float64
	// limitMS is the p90 latency a ladder step must meet.
	limitMS float64
	// disk turns on rpserved's durable cache tier.
	disk bool
}

var serveSpecs = map[string]serveSpec{
	wServeHot: {
		corpus:    64,
		size:      "small",
		fixedRate: 2000,
		ladder:    []float64{4840, 5324, 5856.4, 6442.04, 7086.244},
		limitMS:   3,
	},
	wServeCold: {
		corpus:    (len(coldBandEdges) - 1) * coldPerBand,
		size:      "medium",
		fixedRate: 150,
		ladder:    []float64{200, 220, 242, 266.2, 292.82},
		limitMS:   15,
		disk:      true,
	},
}

const (
	// hotZipfS skews serve-hot's request mix over its corpus.
	hotZipfS = 1.1
	// hotIREvery makes every 8th serve-hot corpus entry imported IR.
	hotIREvery = 8
	// coldTimeoutMS is the interpreter timeout of a serve-cold program's
	// first visit, which is rpserved's ceiling and so its default; visit v
	// asks for v milliseconds less. The timeout is part of the cache key
	// but changes no work a request does, so every visit misses both
	// cache tiers and runs the whole pipeline.
	coldTimeoutMS = 10_000
	// checkEvery samples serve responses for the reference check: one
	// fixed-rate request position in checkEvery (see serveRun.sampled).
	checkEvery = 8
	// fixedShare is the part of a serve run's measured time spent in the
	// fixed-rate phases, which the gated latencies come from; the rest is
	// split evenly over the ladder steps (3 s per step over a 30 s run's
	// three rounds).
	fixedShare = 0.5
	// senders is the number of client goroutines, each with its own
	// connection: all load comes from at most two connections.
	senders = 2
	// serveSetups is how many times each serve round brings a cluster up;
	// the last one is measured. Each round's ladder starts one more, and
	// setup_s is the median of all these start-ups. Starting two processes
	// takes a few milliseconds, so one start per round left setup_s moving
	// by half between runs.
	serveSetups = 4
	// batchSetups is how many children each batch round starts; all but
	// the last only set up and exit. The suite's set-up takes a tenth of a
	// second, and one sample per round left setup_s moving by a fifth.
	batchSetups = 3
)

// metricSpec describes one reported metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen before a
// change counts as a regression; per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd lists the metrics an untraced run prints for every workload.
var endToEnd = []metricSpec{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "fn_per_s", Unit: "functions/s", Better: "higher", Bound: 0.25},
	{Name: "p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.15},
}

// perLayer lists the metrics a traced run puts in its result line for
// every workload. Time and allocation metrics are means per program;
// counts are totals per pass over the workload's programs. A layer a
// workload does not exercise reports 0, so every time metric here is one
// all four workloads measure (the serve workloads through an in-process
// walk of the programs they send).
var perLayer = []metricSpec{
	{Name: "source.compile.self_ms", Unit: "ms", Better: "lower"},
	{Name: "source.compile.calls", Unit: "count", Better: "lower"},
	{Name: "source.compile.allocs", Unit: "count", Better: "lower"},
	{Name: "source.compile.alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "irimport.compile.calls", Unit: "count", Better: "lower"},
	{Name: "irimport.compile.allocs", Unit: "count", Better: "lower"},
	{Name: "alias.analyze.self_ms", Unit: "ms", Better: "lower"},
	{Name: "alias.analyze.allocs", Unit: "count", Better: "lower"},
	{Name: "cfg.normalize.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cfg.normalize.allocs", Unit: "count", Better: "lower"},
	{Name: "cfg.remove_unreachable.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cfg.blocks", Unit: "count", Better: "lower"},
	{Name: "analysis.self_ms", Unit: "ms", Better: "lower"},
	{Name: "analysis.builds.dom", Unit: "count", Better: "lower"},
	{Name: "analysis.builds.df", Unit: "count", Better: "lower"},
	{Name: "analysis.builds.intervals", Unit: "count", Better: "lower"},
	{Name: "analysis.builds.rpo", Unit: "count", Better: "lower"},
	{Name: "analysis.builds.code", Unit: "count", Better: "lower"},
	{Name: "interp.train.allocs", Unit: "count", Better: "lower"},
	{Name: "interp.measure.allocs", Unit: "count", Better: "lower"},
	{Name: "interp.steps", Unit: "count", Better: "lower"},
	{Name: "ssa.build.self_ms", Unit: "ms", Better: "lower"},
	{Name: "ssa.build.allocs", Unit: "count", Better: "lower"},
	{Name: "ssa.destruct.self_ms", Unit: "ms", Better: "lower"},
	{Name: "ssa.phis", Unit: "count", Better: "lower"},
	{Name: "core.promote.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.promote.allocs", Unit: "count", Better: "lower"},
	{Name: "core.promote.alloc_kb", Unit: "KiB", Better: "lower"},
	{Name: "core.webs_considered", Unit: "count", Better: "higher"},
	{Name: "core.webs_promoted", Unit: "count", Better: "higher"},
	{Name: "core.promote_ratio", Unit: "ratio", Better: "higher"},
	{Name: "core.loads_replaced", Unit: "count", Better: "higher"},
	{Name: "core.stores_deleted", Unit: "count", Better: "higher"},
	{Name: "core.loads_inserted", Unit: "count", Better: "lower"},
	{Name: "core.stores_inserted", Unit: "count", Better: "lower"},
	{Name: "core.memops_removed_pct", Unit: "%", Better: "higher"},
	{Name: "ir.verify.self_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.instrs_before", Unit: "count", Better: "lower"},
	{Name: "ir.instrs_after", Unit: "count", Better: "lower"},
	{Name: "pipeline.unattributed_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "router.hedges", Unit: "count", Better: "lower"},
	{Name: "router.spills", Unit: "count", Better: "lower"},
	{Name: "router.failovers", Unit: "count", Better: "lower"},
	{Name: "router.gateway_errors", Unit: "count", Better: "lower"},
	{Name: "server.hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.disk_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.collapsed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "server.miss_ratio", Unit: "ratio", Better: "lower"},
	{Name: "server.rejected", Unit: "count", Better: "lower"},
	{Name: "server.evictions", Unit: "count", Better: "lower"},
	{Name: "diskcache.write_errors", Unit: "count", Better: "lower"},
	{Name: "diskcache.bytes_per_entry", Unit: "B", Better: "lower"},
}

// layerDiagnostics are per-layer times that some workload never
// measures: the interpreter on gen-static, the serving layers on the
// batch workloads. A traced run prints them and stores them in its result
// file, but keeps them out of the result line, where a time that reads 0
// on every run of a workload would look like a value that was never
// measured.
var layerDiagnostics = []metricSpec{
	{Name: "irimport.compile.self_ms", Unit: "ms", Better: "lower"},
	{Name: "profile.estimate.self_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.train.self_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.measure.self_ms", Unit: "ms", Better: "lower"},
	{Name: "interp.ns_per_step", Unit: "ns", Better: "lower"},
	{Name: "client.late_us_p90", Unit: "us", Better: "lower"},
	{Name: "client.conn_wait_us_p90", Unit: "us", Better: "lower"},
	{Name: "router.overhead_us_p50", Unit: "us", Better: "lower"},
	{Name: "server.handler_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.pipeline_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "server.queue_wait_ms_p90", Unit: "ms", Better: "lower"},
}
