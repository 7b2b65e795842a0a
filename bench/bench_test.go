package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/server"
)

// benchmarkFile mirrors the repository's BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestBenchmarkFileMatchesCode keeps BENCHMARK.json and the metric and
// workload tables the benchmark prints from in step.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	b := loadBenchmarkFile(t)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %s: why %q, code says %q", w.Name, w.Why, workloadWhy[w.Name])
		}
	}
	if !reflect.DeepEqual(names, gatedWorkloads) {
		t.Errorf("workloads %v, code gates %v", names, gatedWorkloads)
	}
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the code:\nfile %+v\ncode %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the code:\nfile %+v\ncode %+v", b.PerLayer, perLayer)
	}
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, default -seconds %d", b.RunSeconds, defaultSeconds)
	}
}

// resultJSON is the benchmark's last output line.
type resultJSON struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs every workload for one short round, untraced and traced
// at once, and checks that each prints every metric BENCHMARK.json names,
// with its unit, and that no operation failed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the benchmark")
	}
	b := loadBenchmarkFile(t)
	dir := t.TempDir()
	bin := filepath.Join(dir, "bench")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Env = append(os.Environ(), "CGO_ENABLED=0")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	var wg sync.WaitGroup
	for _, tc := range []struct {
		trace string
		specs []metricSpec
	}{{"0", b.EndToEnd}, {"1", b.PerLayer}} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cmd := exec.Command(bin, "-workload", "all", "-seed", "1", "-seconds", "1", "-rounds", "1",
				"-programs", "16", "-trace", tc.trace, "-out", filepath.Join(dir, "trace"+tc.trace))
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			out, err := cmd.Output()
			if err != nil {
				t.Errorf("trace %s: %v\n%s\n%s", tc.trace, err, out, stderr.String())
				return
			}
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var res resultJSON
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Errorf("trace %s: last line: %v", tc.trace, err)
				return
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("trace %s: correct %v, %d of %d failed\n%s", tc.trace, res.Correct, res.Failed, res.Attempted, out)
			}
			for _, w := range workloadNames {
				for _, m := range tc.specs {
					got, ok := res.Metrics[w+"/"+m.Name]
					if !ok || got.Unit != m.Unit {
						t.Errorf("trace %s: %s/%s printed as %+v (present %v), want unit %s", tc.trace, w, m.Name, got, ok, m.Unit)
					}
					if !strings.Contains(string(out), m.Name) {
						t.Errorf("trace %s: report never names %s", tc.trace, m.Name)
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestCheckerRejectsCorruptOutcome feeds the reference check a promoted
// outcome and a served outcome that each differ from the reference run in
// one observable, and expects both to be caught.
func TestCheckerRejectsCorruptOutcome(t *testing.T) {
	progs, err := batchCorpus(wSuite, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	p := progs[0]
	out, err := pipeline.Run(p.Src, batchOptions(wSuite, p))
	if err != nil {
		t.Fatal(err)
	}
	ref, err := referenceBefore(p)
	if err != nil {
		t.Fatal(err)
	}
	c, err := checkOutcome(out)
	if err != nil {
		t.Fatal(err)
	}
	if d := judge(ref, c); d != "" {
		t.Fatalf("healthy outcome rejected: %s", d)
	}

	corrupt := c
	corrupt.After.Output = append([]int64(nil), c.After.Output...)
	corrupt.After.Output[0]++
	if judge(ref, corrupt) == "" {
		t.Error("a changed printed value passed the check")
	}
	corrupt = c
	m := *c.Measured
	m.Return++
	corrupt.Measured = &m
	if judge(ref, corrupt) == "" {
		t.Error("a changed return value in the measured outcome passed the check")
	}

	enc := report.EncodeOutcome(out)
	g := enc.Globals[0]
	g.Values = append([]int64(nil), g.Values...)
	g.Values[len(g.Values)-1] ^= 1
	enc.Globals = append([]report.GlobalJSON{g}, enc.Globals[1:]...)
	raw, err := json.Marshal(enc)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(server.PromoteResponse{Outcome: raw})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := decodeServed(body)
	if err != nil {
		t.Fatal(err)
	}
	if firstDiff(ref, got) == "" {
		t.Error("a changed global in a served outcome passed the check")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{7, 1, 3}, 1, 3, 7},
		{[]float64{4, 1, 3, 2}, 1.25, 2.5, 3.75},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q2 != tc.q2 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, q2, q3, tc.q1, tc.q2, tc.q3)
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "p50_ms", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "fn_per_s", Better: "higher", Bound: 0.10}
	ten := func(base float64, step float64) []float64 {
		var xs []float64
		for i := 0; i < 10; i++ {
			xs = append(xs, base+step*float64(i%3))
		}
		return xs
	}
	for _, tc := range []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"exact count kept", higher, []float64{5, 5}, []float64{5, 5}, "unchanged"},
		{"exact count lost", higher, []float64{5, 5}, []float64{4, 4}, "worse"},
		{"within bound", lower, ten(100, 1), ten(104, 1), "unchanged"},
		{"beyond bound", lower, ten(100, 1), ten(120, 1), "worse"},
		{"too noisy", lower, ten(100, 20), ten(101, 20), "unresolved"},
		{"ten pairs won", higher, ten(100, 1), ten(108, 1), "better"},
		{"too few pairs", higher, []float64{100, 101, 102}, []float64{108, 109, 110}, "unchanged"},
	} {
		if got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}
