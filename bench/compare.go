package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// runCompare prints, for every workload and end-to-end metric, the
// medians and quartiles of two sets of runs, the metric's bound and a
// verdict; see verdict for the rules. A and B are each a result file or a
// directory of them. Runs pair up in file-name order, so name the files
// so that the i-th run of A and of B were made one after the other.
func runCompare(args []string, w io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "bench: -compare wants two arguments: A B (result files or directories)")
		return 2
	}
	a, err := loadRuns(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	b, err := loadRuns(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	fmt.Fprintf(w, "A: %d runs from %s\nB: %d runs from %s\n", len(a), args[0], len(b), args[1])
	if pairs < 10 {
		fmt.Fprintf(w, "only %d pairs: a gain needs at least 10, so no metric can read better\n", pairs)
	}
	specs := append(append([]metricSpec(nil), endToEnd...),
		metricSpec{Name: "fail_ratio", Unit: "ratio", Better: "lower"},
		metricSpec{Name: "memops_removed_pct", Unit: "%", Better: "higher"},
		metricSpec{Name: "slo_req_per_s", Unit: "req/s", Better: "higher", Bound: 0.10}) // one ladder step
	fmt.Fprintf(w, "%-11s %-19s %14s %14s %9s %9s  %s\n", "workload", "metric", "A median", "B median", "A IQR", "bound", "verdict")
	for _, name := range workloadNames {
		for _, m := range specs {
			va, vb := values(a, name, m.Name), values(b, name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			fmt.Fprintf(w, "%-11s %-19s %14s %14s %9s %9s  %s\n", name, m.Name,
				formatValue(round4(ma)), formatValue(round4(mb)), spreadText(va), fmt.Sprintf("%g", m.Bound), verdict(m, va, vb))
		}
	}
	return 0
}

func spreadText(xs []float64) string {
	q1, q2, q3 := quartiles(xs)
	if len(xs) == 0 || q2 == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*(q3-q1)/math.Abs(q2))
}

// loadRuns reads untraced result files.
func loadRuns(path string) ([]record, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
		sort.Strings(files)
	}
	var runs []record
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rec record
		if err := json.Unmarshal(data, &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if rec.SchemaVersion != schemaVersion {
			return nil, fmt.Errorf("%s: schema version %d, want %d", f, rec.SchemaVersion, schemaVersion)
		}
		if !rec.Trace {
			runs = append(runs, rec)
		}
	}
	if len(runs) == 0 {
		return nil, fmt.Errorf("%s: no untraced result files", path)
	}
	return runs, nil
}

// values collects one metric of one workload, one value per run.
func values(runs []record, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		for _, w := range r.Workloads {
			if w.Workload != workload {
				continue
			}
			if metric == "fail_ratio" {
				out = append(out, w.FailRatio)
			} else if v, ok := w.Metrics[metric]; ok {
				out = append(out, v.Value)
			} else if v, ok := w.Diagnostics[metric]; ok {
				out = append(out, v)
			}
		}
	}
	return out
}

// verdict judges B against A for one metric, by these rules in order:
//
//   - exact: when every run of each side repeats one value (a count the
//     program makes), any difference is a real change: better or worse;
//   - unresolved: A's spread (quartile distance over median) is wider
//     than the bound, unless every run of B reads better than every run
//     of A;
//   - worse: B's median is worse than A's by more than the bound;
//   - better: at least 10 pairs, B wins at least 9 in 10 of them (ties
//     count for neither), and the medians differ by more than A's
//     quartile distance;
//   - unchanged otherwise.
func verdict(m metricSpec, a, b []float64) string {
	if len(a) == 0 || len(b) == 0 {
		return "missing"
	}
	better := func(x, y float64) bool { // is y better than x
		if m.Better == "higher" {
			return y > x
		}
		return y < x
	}
	q1, ma, q3 := quartiles(a)
	_, mb, _ := quartiles(b)
	if same(a) && same(b) {
		switch {
		case ma == mb:
			return "unchanged"
		case better(ma, mb):
			return "better"
		}
		return "worse"
	}
	allBetter := true
	for _, x := range a {
		for _, y := range b {
			allBetter = allBetter && better(x, y)
		}
	}
	scale := math.Abs(ma)
	if scale == 0 {
		scale = 1
	}
	if (q3-q1)/scale > m.Bound && !allBetter {
		return "unresolved"
	}
	worsening := (mb - ma) / scale
	if m.Better == "higher" {
		worsening = -worsening
	}
	if worsening > m.Bound {
		return "worse"
	}
	pairs := len(a)
	if len(b) < pairs {
		pairs = len(b)
	}
	if pairs >= 10 {
		wins := 0
		for i := 0; i < pairs; i++ {
			if better(a[i], b[i]) {
				wins++
			}
		}
		if wins*10 >= pairs*9 && -worsening*scale > q3-q1 {
			return "better"
		}
	}
	return "unchanged"
}

func same(xs []float64) bool {
	for _, x := range xs {
		if x != xs[0] {
			return false
		}
	}
	return true
}
