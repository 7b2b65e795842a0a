package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// schemaVersion is stamped into every result file; bump it when a field
// changes meaning or shape.
const schemaVersion = 1

// metricValue is one reported metric. Rounds holds the per-round values
// an end-to-end metric was combined from, so the spread stays visible.
type metricValue struct {
	Value  float64   `json:"value"`
	Unit   string    `json:"unit"`
	Rounds []float64 `json:"rounds,omitempty"`
}

// ladderStep is one SLO ladder rate over the rounds: requests summed,
// the best round's p90, and how many rounds met the SLO at this rate.
type ladderStep struct {
	Rate   float64 `json:"rate"`
	Sent   int     `json:"sent"`
	Failed int     `json:"failed"`
	P90MS  float64 `json:"best_p90_ms"`
	Passed int     `json:"rounds_passed"`
	Rounds int     `json:"rounds"`
}

// workloadResult is everything one workload reported in one run.
type workloadResult struct {
	Workload  string  `json:"workload"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// Correct is false when any output disagreed with the reference
	// interpreter or a traced-run cross-check failed; Problems says why.
	Correct  bool     `json:"correct"`
	Problems []string `json:"problems,omitempty"`
	// Valid is false when the load generator itself ran late; Notes
	// says why. Such a run's latencies overstate the system's.
	Valid   bool                   `json:"valid"`
	Notes   []string               `json:"notes,omitempty"`
	Metrics map[string]metricValue `json:"metrics"`
	// Diagnostics holds values that are printed but not gated, such as
	// p99 latency and the reference-check counts.
	Diagnostics map[string]float64 `json:"diagnostics,omitempty"`
	Ladder      []ladderStep       `json:"ladder,omitempty"`
}

func (w *workloadResult) problem(format string, args ...any) {
	w.Correct = false
	w.Problems = append(w.Problems, fmt.Sprintf(format, args...))
}

func (w *workloadResult) set(name string, v float64, rounds []float64) {
	for i := range rounds {
		rounds[i] = finite(rounds[i])
	}
	w.Metrics[name] = metricValue{Value: finite(v), Unit: unitOf(name), Rounds: rounds}
}

func (w *workloadResult) diag(name string, v float64) {
	if w.Diagnostics == nil {
		w.Diagnostics = map[string]float64{}
	}
	w.Diagnostics[name] = finite(v)
}

// finite maps the infinite latency of failed requests (see
// shot.latencyMS) to the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// memops records the paper's result for the checked programs: the share
// of dynamic singleton loads and stores promotion removed, averaged with
// each program weighing the same. A corpus-wide sum is decided by the few
// programs that execute the most memory operations and moved by 16%
// between gen-static seeds. It is exact for a seed but differs between
// seeds by up to 31% (serve-hot's 64 small programs), more than any
// bound the benchmark may set, so it is a diagnostic here and a
// per-layer metric of the traced run rather than a gated end-to-end one.
func (w *workloadResult) memops(removedPcts []float64) {
	if len(removedPcts) == 0 {
		return
	}
	sum := 0.0
	for _, x := range removedPcts {
		sum += x
	}
	w.diag("memops_removed_pct", sum/float64(len(removedPcts)))
	w.set("core.memops_removed_pct", sum/float64(len(removedPcts)), nil)
}

func unitOf(name string) string {
	for _, list := range [][]metricSpec{endToEnd, perLayer, layerDiagnostics} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// machineInfo is the host and build a result was measured on.
type machineInfo struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	OS         string `json:"os"`
	Arch       string `json:"arch"`
	Commit     string `json:"commit"`
	Dirty      bool   `json:"dirty"`
	Note       string `json:"note"`
}

// settingsInfo records the phase lengths and rates a run used.
type settingsInfo struct {
	Seconds        float64              `json:"seconds"`
	Rounds         int                  `json:"rounds"`
	RoundSeconds   float64              `json:"round_seconds"`
	FixedPhaseS    float64              `json:"fixed_phase_s"`
	LadderStepS    float64              `json:"ladder_step_s"`
	Serve          map[string]serveInfo `json:"serve"`
	GenStaticCount int                  `json:"gen_static_programs"`
	ProgramsCap    int                  `json:"programs_cap,omitempty"`
}

type serveInfo struct {
	FixedRate float64   `json:"fixed_rate"`
	Ladder    []float64 `json:"ladder"`
	LimitMS   float64   `json:"limit_ms"`
}

// record is one result file: one run of one or more workloads.
type record struct {
	SchemaVersion int              `json:"schema_version"`
	Started       string           `json:"started"`
	Machine       machineInfo      `json:"machine"`
	Seed          int64            `json:"seed"`
	Trace         bool             `json:"trace"`
	Settings      settingsInfo     `json:"settings"`
	Workloads     []workloadResult `json:"workloads"`
}

func hostInfo() machineInfo {
	n := runtime.NumCPU()
	m := machineInfo{
		NProc:      n,
		GOMAXPROCS: n,
		GoVersion:  runtime.Version(),
		OS:         runtime.GOOS,
		Arch:       runtime.GOARCH,
		Commit:     "unknown",
		Note:       fmt.Sprintf("shared %d-vCPU VM; other tenants add timing noise", n),
	}
	// Stop git at the checkout root: outside a repository it must not
	// wander into parent directories.
	root, err := filepath.Abs("..")
	if err != nil {
		return m
	}
	env := append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Env = env
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if head, err := git("rev-parse", "HEAD"); err == nil && head != "" {
		m.Commit = head
		if st, err := git("status", "--porcelain", "--untracked-files=no"); err == nil {
			m.Dirty = st != ""
		}
	}
	return m
}

func settingsFor(o options) settingsInfo {
	s := settingsInfo{
		Seconds:        o.seconds,
		Rounds:         o.rounds,
		RoundSeconds:   o.seconds / float64(o.designRounds()),
		FixedPhaseS:    fixedPhase(o.seconds, o.designRounds()).Seconds(),
		LadderStepS:    stepLength(o.seconds, o.designRounds()).Seconds(),
		Serve:          map[string]serveInfo{},
		GenStaticCount: genBands * genPerBand,
		ProgramsCap:    o.programs,
	}
	for name, sp := range serveSpecs {
		s.Serve[name] = serveInfo{FixedRate: sp.fixedRate, Ladder: sp.ladder, LimitMS: sp.limitMS}
	}
	return s
}

func writeRecord(dir string, rec record) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	names := make([]string, len(rec.Workloads))
	for i, w := range rec.Workloads {
		names[i] = w.Workload
	}
	mode := ""
	if rec.Trace {
		mode = "-trace"
	}
	stamp := time.Now().UTC().Format("20060102T150405.000")
	path := filepath.Join(dir, fmt.Sprintf("%s-%s-seed%d%s.json", stamp, strings.Join(names, "+"), rec.Seed, mode))
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// Statistics helpers.

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (p in [0,1]) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

// quartiles returns the first quartile, median and third quartile the
// way Python's statistics.quantiles(xs, n=4) computes them.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := i * m / 4
		delta := i*m - j*4
		lo := j - 1
		if lo < 0 {
			lo = 0
		}
		hi := j
		if hi > n-1 {
			hi = n - 1
		}
		return (s[lo]*float64(4-delta) + s[hi]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// formatValue prints a value with all the digits it was measured with.
func formatValue(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
