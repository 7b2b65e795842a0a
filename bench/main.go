// Command bench is the repository's benchmark: one command that runs the
// batch compiler and the routed promotion service under fixed, seeded
// workloads, checks every output against the reference interpreter, and
// prints every end-to-end metric by name with its unit. A traced run
// (-trace 1) prints the per-layer metrics instead, from spans recorded
// around the benchmark's own calls into each module. See README.md.
//
// Usage:
//
//	go run . [-workload all|suite|gen-static|serve-hot|serve-cold] [-seed 1] [-seconds 30] [-trace 0|1]
//	go run . -compare A B     # A and B: result files or directories of them
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are one run's settings.
type options struct {
	seed     int64
	seconds  float64 // measured per workload
	rounds   int
	trace    bool
	programs int // cap on each batch workload's programs, when positive
	out      string
}

// designRounds is the round count phases are sized for: a traced run
// replays one round of the untraced design.
func (o options) designRounds() int {
	if o.trace {
		return defaultRounds
	}
	return o.rounds
}

func main() {
	var (
		workloadF = flag.String("workload", "all", "workload to run: all, "+strings.Join(workloadNames, ", "))
		seed      = flag.Int64("seed", 1, "seed every workload input is generated from")
		seconds   = flag.Float64("seconds", defaultSeconds, "measured seconds per workload")
		trace     = flag.Int("trace", 0, "1 runs the traced variant and prints the per-layer metrics")
		rounds    = flag.Int("rounds", defaultRounds, "fresh processes (batch) or server pairs (serve) per workload")
		programs  = flag.Int("programs", 0, "compile only the first N programs of each batch workload, for quick runs (0 = all)")
		outDir    = flag.String("out", "out", "directory for result files, span files and built binaries")
		compare   = flag.Bool("compare", false, "compare two sets of result files given as arguments: A B")

		child     = flag.Bool("child", false, "internal: run as a batch child process")
		setupOnly = flag.Bool("setup-only", false, "internal: the child stops after its warm-up")
		check     = flag.Bool("check", false, "internal: the child runs the promoted programs on the reference interpreter")
		spans     = flag.String("spans", "", "internal: the child's span file")
	)
	flag.Parse()

	switch {
	case *child:
		if err := runChild(*workloadF, *seed, *programs, *seconds, *setupOnly, *check, *trace == 1, *spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			os.Exit(1)
		}
	case *compare:
		os.Exit(runCompare(flag.Args(), os.Stdout))
	default:
		if *trace != 0 && *trace != 1 {
			fmt.Fprintln(os.Stderr, "bench: -trace takes 0 or 1")
			os.Exit(2)
		}
		os.Exit(run(*workloadF, options{seed: *seed, seconds: *seconds, rounds: *rounds, trace: *trace == 1,
			programs: *programs, out: *outDir}))
	}
}

// run measures the selected workloads and returns the exit code: 0 when
// every output was correct, 1 when a check failed (the result line says
// correct false), 2 when the run could not be made at all.
func run(selected string, o options) int {
	names := workloadNames
	if selected != "all" {
		if _, ok := workloadWhy[selected]; !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q (want all, %s)\n", selected, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{selected}
	}
	if o.seconds <= 0 || o.rounds < 1 {
		fmt.Fprintln(os.Stderr, "bench: need -seconds > 0 and -rounds >= 1")
		return 2
	}
	traced := o.trace
	if traced {
		o.rounds = 1
	}
	rec := record{
		SchemaVersion: schemaVersion,
		Started:       time.Now().UTC().Format(time.RFC3339),
		Machine:       hostInfo(),
		Seed:          o.seed,
		Trace:         traced,
		Settings:      settingsFor(o),
	}
	results, err := measure(names, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if traced {
		for _, w := range results {
			for _, m := range append(perLayer, layerDiagnostics...) {
				if _, ok := w.Metrics[m.Name]; !ok {
					w.set(m.Name, 0, nil) // a layer this workload does not exercise
				}
			}
		}
	}
	rec.Workloads = results
	for _, w := range results {
		printWorkload(os.Stdout, w, traced)
	}
	if path, err := writeRecord(filepath.Join(o.out, "results"), rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench: writing result file:", err)
	} else {
		fmt.Printf("result file: %s\n", path)
	}
	line, correct := resultLine(results, traced)
	fmt.Println(line)
	if !correct {
		return 1
	}
	return 0
}

// measure runs every round of every selected workload. Round r starts
// the workloads in an order rotated by r.
func measure(names []string, o options) ([]workloadResult, error) {
	tmp, err := filepath.Abs(filepath.Join(o.out, "tmp", strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	resDir := filepath.Join(o.out, "results")
	if err := os.MkdirAll(resDir, 0o755); err != nil {
		return nil, err
	}
	stamp := time.Now().UTC().Format("20060102T150405")
	spansFor := func(name string) (string, error) {
		return filepath.Abs(filepath.Join(resDir, fmt.Sprintf("%s-%s-seed%d.spans.jsonl", stamp, name, o.seed)))
	}

	var bins binaries
	batches := map[string]*batchRun{}
	serves := map[string]*serveRun{}
	for _, name := range names {
		if _, ok := serveSpecs[name]; ok {
			if bins.server == "" {
				if bins, err = buildServing(o.out); err != nil {
					return nil, err
				}
			}
			if serves[name], err = newServeRun(name, o.seed, o.seconds, o.designRounds(), bins, tmp); err != nil {
				return nil, err
			}
			continue
		}
		b := &batchRun{name: name, seed: o.seed, limit: o.programs, seconds: o.seconds / float64(o.designRounds()), trace: o.trace}
		if o.trace {
			if b.spans, err = spansFor(name); err != nil {
				return nil, err
			}
		}
		if b.progs, err = batchCorpus(name, o.seed, o.programs); err != nil {
			return nil, err
		}
		batches[name] = b
	}

	if o.trace {
		var out []workloadResult
		for _, name := range names {
			if b := batches[name]; b != nil {
				b.round(0)
				out = append(out, b.finish())
				continue
			}
			path, err := spansFor(name)
			if err != nil {
				return nil, err
			}
			out = append(out, serves[name].traced(path))
		}
		return out, nil
	}

	for r := 0; r < o.rounds; r++ {
		for i := range names {
			name := names[(i+r)%len(names)]
			if b := batches[name]; b != nil {
				b.round(r)
			} else {
				serves[name].round(r)
			}
		}
	}
	for r := 0; r < o.rounds; r++ {
		for _, name := range names {
			if s := serves[name]; s != nil {
				s.climb(r)
			}
		}
	}
	var out []workloadResult
	for _, name := range names {
		if b := batches[name]; b != nil {
			out = append(out, b.finish())
		} else {
			out = append(out, serves[name].finish())
		}
	}
	return out, nil
}

// printWorkload writes one workload's human-readable report.
func printWorkload(f *os.File, w workloadResult, traced bool) {
	fmt.Fprintf(f, "== %s\n", w.Workload)
	specs := endToEnd
	if traced {
		specs = append(perLayer, layerDiagnostics...)
	}
	for i, m := range specs {
		if traced && i == len(perLayer) {
			fmt.Fprintln(f, "  layer diagnostics, not in the result line:")
		}
		v, ok := w.Metrics[m.Name]
		if !ok {
			fmt.Fprintf(f, "  %-32s missing\n", m.Name)
			continue
		}
		line := fmt.Sprintf("  %-32s %-14s %s", m.Name, formatValue(round4(v.Value)), m.Unit)
		if len(v.Rounds) > 1 {
			parts := make([]string, len(v.Rounds))
			for i, r := range v.Rounds {
				parts[i] = formatValue(round4(r))
			}
			line += "  rounds: " + strings.Join(parts, " ")
		}
		fmt.Fprintln(f, line)
	}
	fmt.Fprintf(f, "  %-32s %s (%d of %d operations failed)\n", "fail_ratio", formatValue(w.FailRatio), w.Failed, w.Attempted)
	for _, st := range w.Ladder {
		fmt.Fprintf(f, "  ladder %8.2f req/s  sent %5d  failed %d  best p90 %8.3f ms  passed in %d of %d rounds\n",
			st.Rate, st.Sent, st.Failed, st.P90MS, st.Passed, st.Rounds)
	}
	keys := make([]string, 0, len(w.Diagnostics))
	for k := range w.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(f, "  %-32s %s (not gated)\n", k, formatValue(round4(w.Diagnostics[k])))
	}
	for _, n := range w.Notes {
		fmt.Fprintf(f, "  INVALID: %s\n", n)
	}
	if w.Correct {
		fmt.Fprintln(f, "  outputs match the reference interpreter")
	}
	for _, p := range w.Problems {
		fmt.Fprintf(f, "  MISMATCH: %s\n", p)
	}
}

func round4(v float64) float64 {
	if v == 0 || math.IsInf(v, 0) || math.IsNaN(v) {
		return v
	}
	scale := math.Pow(10, 4-math.Ceil(math.Log10(math.Abs(v))))
	return math.Round(v*scale) / scale
}

// resultLine renders the final JSON line. A single workload reports its
// metrics under their own names; several report "workload/metric".
func resultLine(results []workloadResult, traced bool) (string, bool) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: true, Metrics: map[string]value{}}
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, w := range results {
		line.Correct = line.Correct && w.Correct
		line.Attempted += w.Attempted
		line.Failed += w.Failed
		for _, m := range specs {
			v, ok := w.Metrics[m.Name]
			if !ok {
				line.Correct = false
				continue
			}
			key := m.Name
			if len(results) > 1 {
				key = w.Workload + "/" + m.Name
			}
			line.Metrics[key] = value{Value: v.Value, Unit: m.Unit}
		}
	}
	if line.Attempted == 0 {
		line.Attempted = 1
		line.Failed = 1
		line.Correct = false
	}
	data, err := json.Marshal(line)
	if err != nil { // values are finite (see finite), so this is a bug
		fmt.Fprintln(os.Stderr, "bench: encoding the result line:", err)
		return `{"correct":false,"attempted":1,"failed":1,"metrics":{}}`, false
	}
	return string(data), line.Correct
}
