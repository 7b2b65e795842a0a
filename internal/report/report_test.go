package report

import (
	"strings"
	"testing"

	"repro/internal/pipeline"
)

func TestTable1Shapes(t *testing.T) {
	rows, err := Table1(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(rows))
	}
	// The paper's signature static effect: on benchmarks with real
	// promotion, static load counts mostly *increase* (negative
	// improvement) because compensation loads land on cold paths.
	byName := map[string]Row1{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	if r := byName["go"]; r.LoadsAfter < r.LoadsBefore {
		t.Errorf("go: static loads should not shrink (before %d, after %d)",
			r.LoadsBefore, r.LoadsAfter)
	}
	// compress has almost nothing to promote: counts barely move.
	if r := byName["compress"]; abs(r.LoadsAfter-r.LoadsBefore) > 5 {
		t.Errorf("compress: static loads moved too much: %d -> %d", r.LoadsBefore, r.LoadsAfter)
	}
	out := FormatTable1(rows)
	if !strings.Contains(out, "go") || !strings.Contains(out, "vortex") {
		t.Error("formatted table missing benchmarks")
	}
}

func TestTable2Shapes(t *testing.T) {
	rows, err := Table2(Options{})
	if err != nil {
		t.Fatal(err)
	}
	byName := map[string]Row2{}
	for _, r := range rows {
		byName[r.Name] = r
	}
	// Dynamic shape: go and ijpeg win big; vortex barely moves; nothing
	// regresses.
	if imp := byName["go"].TotalImprovement(); imp < 15 {
		t.Errorf("go dynamic improvement %.1f%%, want >= 15%%", imp)
	}
	if imp := byName["ijpeg"].LoadImprovement(); imp < 10 {
		t.Errorf("ijpeg dynamic load improvement %.1f%%, want >= 10%%", imp)
	}
	if imp := byName["vortex"].TotalImprovement(); imp > 10 {
		t.Errorf("vortex dynamic improvement %.1f%%, want < 10%%", imp)
	}
	for _, r := range rows {
		if r.TotalImprovement() < -1 {
			t.Errorf("%s regressed: %.1f%%", r.Name, r.TotalImprovement())
		}
	}
	// Headline: mean total improvement should land in the paper's
	// neighbourhood (~12%).
	mean := MeanTotalImprovement(rows)
	if mean < 5 {
		t.Errorf("mean improvement %.1f%%, want >= 5%%", mean)
	}
	_ = FormatTable2(rows)
}

func TestTable3Shapes(t *testing.T) {
	rows, err := Table3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no routines with promotion opportunities found")
	}
	// Register pressure may only grow or stay.
	raised := 0
	for _, r := range rows {
		if r.ColorsAfter < r.ColorsBefore {
			t.Errorf("%s/%s: colors dropped %d -> %d",
				r.Benchmark, r.Routine, r.ColorsBefore, r.ColorsAfter)
		}
		if r.ColorsAfter > r.ColorsBefore {
			raised++
		}
	}
	if raised == 0 {
		t.Error("promotion never raised register pressure — Table 3 would be empty of signal")
	}
	_ = FormatTable3(rows)
}

// TestPressureBaselineMatchesTable3 checks that the pressure cap and
// Table 3 agree on what a routine needs before promotion: the cap's
// baseline is the form the pass emits when it promotes nothing, which
// must color exactly like the unpromoted program.
func TestPressureBaselineMatchesTable3(t *testing.T) {
	t3, err := Table3(Options{})
	if err != nil {
		t.Fatal(err)
	}
	rows, err := PressureTable(Options{}, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	baseline := map[string]int{}
	for _, r := range rows {
		baseline[r.Benchmark+"/"+r.Routine] = r.BaselineColors
	}
	for _, r := range t3 {
		key := r.Benchmark + "/" + r.Routine
		got, ok := baseline[key]
		if !ok {
			t.Errorf("%s: in Table 3 but missing from the pressure table", key)
			continue
		}
		if got != r.ColorsBefore {
			t.Errorf("%s: pressure baseline %d colors, Table 3 colors before %d", key, got, r.ColorsBefore)
		}
	}
}

func TestAblationBaseline(t *testing.T) {
	rows, err := Ablation(
		Options{Algorithm: pipeline.AlgSSA},
		Options{Algorithm: pipeline.AlgBaseline},
		"ssa", "loop-baseline",
	)
	if err != nil {
		t.Fatal(err)
	}
	// The SSA algorithm must never lose to the baseline, and must win
	// somewhere (the cold-call-path benchmarks).
	wins := 0
	for _, r := range rows {
		if r.BaseA > r.BaseB {
			t.Errorf("%s: ssa (%d) worse than baseline (%d)", r.Name, r.BaseA, r.BaseB)
		}
		if r.BaseA < r.BaseB {
			wins++
		}
	}
	if wins == 0 {
		t.Error("ssa never beat the loop baseline across the suite")
	}
	_ = FormatAblation(rows)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
