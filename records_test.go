package repro_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestBenchRecordsSchema checks the committed BENCH_*.json records. Every
// one must be valid JSON. BENCH_e2e.json and BENCH_layers.json, which
// `make bench` copies from the bench/ harness, must carry the schema
// version and a machine block taken on a clean tree (a dirty one does
// not describe its commit), report every workload correct, and hold
// every metric BENCHMARK.json names for every gated workload: the
// end-to-end metrics untraced, the per-layer metrics traced. The values
// are noisy and are not gated here.
func TestBenchRecordsSchema(t *testing.T) {
	paths, err := filepath.Glob("BENCH_*.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !json.Valid(data) {
			t.Errorf("%s: not valid JSON", p)
		}
	}

	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name string `json:"name"`
		} `json:"end_to_end"`
		PerLayer []struct {
			Name string `json:"name"`
		} `json:"per_layer"`
	}
	readJSON(t, "BENCHMARK.json", &spec)
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name)
	}

	for _, tc := range []struct {
		path    string
		trace   bool
		metrics []string
	}{
		{"BENCH_e2e.json", false, e2e},
		{"BENCH_layers.json", true, layers},
	} {
		var rec struct {
			SchemaVersion int `json:"schema_version"`
			Machine       struct {
				Commit string `json:"commit"`
				NProc  int    `json:"nproc"`
				Dirty  bool   `json:"dirty"`
			} `json:"machine"`
			Trace     bool `json:"trace"`
			Workloads []struct {
				Workload string                     `json:"workload"`
				Correct  bool                       `json:"correct"`
				Metrics  map[string]json.RawMessage `json:"metrics"`
			} `json:"workloads"`
		}
		readJSON(t, tc.path, &rec)
		if rec.SchemaVersion < 1 {
			t.Errorf("%s: schema_version %d", tc.path, rec.SchemaVersion)
		}
		if rec.Machine.Commit == "" || rec.Machine.NProc < 1 {
			t.Errorf("%s: machine block lacks commit or nproc: %+v", tc.path, rec.Machine)
		}
		if rec.Machine.Dirty {
			t.Errorf("%s: recorded on a dirty tree (commit %s)", tc.path, rec.Machine.Commit)
		}
		if rec.Trace != tc.trace {
			t.Errorf("%s: trace %v, want %v", tc.path, rec.Trace, tc.trace)
		}
		got := map[string]map[string]json.RawMessage{}
		for _, w := range rec.Workloads {
			if !w.Correct {
				t.Errorf("%s: workload %s not correct", tc.path, w.Workload)
			}
			got[w.Workload] = w.Metrics
		}
		for _, w := range spec.Workloads {
			metrics, ok := got[w.Name]
			if !ok {
				t.Errorf("%s: no result for workload %s", tc.path, w.Name)
				continue
			}
			for _, m := range tc.metrics {
				if _, ok := metrics[m]; !ok {
					t.Errorf("%s: workload %s lacks metric %s", tc.path, w.Name, m)
				}
			}
		}
	}
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}
