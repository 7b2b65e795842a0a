package diag_test

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/diag"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/report"
	"repro/internal/source"
	"repro/internal/workload"
)

// analyze compiles src and runs the rules.
func analyze(t *testing.T, src string, opts diag.Options) []diag.Finding {
	t.Helper()
	prog := compileSrc(t, src)
	findings, err := diag.AnalyzeProgram(prog, opts)
	if err != nil {
		t.Fatalf("AnalyzeProgram: %v", err)
	}
	return findings
}

func compileSrc(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatalf("alias: %v", err)
	}
	return prog
}

func byRule(findings []diag.Finding, rule string) []diag.Finding {
	var out []diag.Finding
	for _, f := range findings {
		if f.Rule == rule {
			out = append(out, f)
		}
	}
	return out
}

func TestDeadStoreRule(t *testing.T) {
	src := `
int live; int dead;
void main() {
	dead = 7;
	live = 1;
	dead = live;
	print(live);
}
`
	findings := analyze(t, src, diag.Options{})
	ds := byRule(findings, "dead-store")
	if len(ds) == 0 {
		t.Fatalf("no dead-store findings in %v", findings)
	}
	joined := ""
	for _, f := range ds {
		if f.Severity != diag.SevWarn {
			t.Errorf("dead-store severity %q, want warn", f.Severity)
		}
		joined += f.Detail + "\n"
	}
	if !strings.Contains(joined, "dead") {
		t.Errorf("dead-store details never name the dead global: %q", joined)
	}
	// Stores to live must not be flagged.
	if strings.Contains(joined, "store to live") {
		t.Errorf("live store misflagged: %q", joined)
	}
}

func TestUnreachableBlockRule(t *testing.T) {
	src := `
int x;
int f() {
	return 1;
	x = 99;
}
void main() { print(f()); }
`
	findings := analyze(t, src, diag.Options{Rules: []string{"unreachable-block"}})
	un := byRule(findings, "unreachable-block")
	if len(un) == 0 {
		t.Fatalf("code after return produced no unreachable-block finding: %v", findings)
	}
	if un[0].Func != "f" {
		t.Errorf("finding anchored to %q, want f", un[0].Func)
	}
}

func TestUnpromotableWebRule(t *testing.T) {
	// arr is indexed with a variable, so every element aliases; g is
	// promotable and must not be flagged.
	src := `
int arr[10];
int g;
void main() {
	int i;
	for (i = 0; i < 10; i++) { arr[i] = i; g += i; }
	print(arr[3] + g);
}
`
	findings := analyze(t, src, diag.Options{Rules: []string{"unpromotable-web"}})
	up := byRule(findings, "unpromotable-web")
	if len(up) == 0 {
		t.Fatalf("aliased array produced no unpromotable-web finding: %v", findings)
	}
	for _, f := range up {
		if strings.Contains(f.Detail, " g ") || strings.HasSuffix(f.Detail, " g") {
			t.Errorf("promotable global g flagged: %q", f.Detail)
		}
	}
	if !strings.Contains(up[0].Detail, "alias") {
		t.Errorf("finding lacks an alias reason: %q", up[0].Detail)
	}
}

func TestPressureHotspotThreshold(t *testing.T) {
	src := `
int a; int b; int c; int d;
void main() {
	int i;
	for (i = 0; i < 10; i++) { a += i; b += a; c += b; d += c; }
	print(a + b + c + d);
}
`
	// Threshold 1: every block with a live register is a hotspot.
	low := analyze(t, src, diag.Options{Rules: []string{"pressure-hotspot"}, PressureThreshold: 1})
	if len(byRule(low, "pressure-hotspot")) == 0 {
		t.Fatal("threshold 1 flagged no blocks")
	}
	// An absurd threshold flags nothing.
	high := analyze(t, src, diag.Options{Rules: []string{"pressure-hotspot"}, PressureThreshold: 10_000})
	if n := len(byRule(high, "pressure-hotspot")); n != 0 {
		t.Fatalf("threshold 10000 flagged %d blocks", n)
	}
}

func TestUnknownRuleRejected(t *testing.T) {
	prog := compileSrc(t, "void main() { print(1); }")
	_, err := diag.AnalyzeProgram(prog, diag.Options{Rules: []string{"no-such-rule"}})
	if err == nil {
		t.Fatal("unknown rule accepted")
	}
	if !strings.Contains(err.Error(), "no-such-rule") {
		t.Errorf("error does not name the bad rule: %v", err)
	}
}

// TestDeterministicAcrossRuns: the full rule set over the whole suite
// must produce identical findings on repeated runs (ordering included).
func TestDeterministicAcrossRuns(t *testing.T) {
	for _, w := range workload.Suite() {
		a, err := diag.AnalyzeProgram(compileSrc(t, w.Src), diag.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		b, err := diag.AnalyzeProgram(compileSrc(t, w.Src), diag.Options{})
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: findings differ across runs:\n%v\nvs\n%v", w.Name, a, b)
		}
	}
}

func TestReportJSONShape(t *testing.T) {
	findings := analyze(t, `
int dead;
void main() { dead = 3; dead = 4; print(7); }
`, diag.Options{})
	data, err := diag.FormatJSON(findings)
	if err != nil {
		t.Fatal(err)
	}
	var rep diag.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if rep.SchemaVersion != diag.SchemaVersion {
		t.Errorf("schema_version = %d, want %d", rep.SchemaVersion, diag.SchemaVersion)
	}
	if rep.Warnings == 0 {
		t.Errorf("report counted no warnings: %+v", rep)
	}
	if rep.Findings == nil {
		t.Error("findings array must never be null")
	}
}

// TestPipelineDiagnoseStage: the opt-in stage surfaces the same
// findings on the Outcome and does not perturb the paranoid
// differential.
func TestPipelineDiagnoseStage(t *testing.T) {
	src := `
int dead;
void main() { dead = 3; dead = 4; print(7); }
`
	out, err := pipeline.Run(src, pipeline.Options{
		Diagnose: true,
		Check:    pipeline.CheckParanoid,
	})
	if err != nil {
		t.Fatalf("pipeline.Run: %v", err)
	}
	if len(byRule(out.Diagnostics, "dead-store")) == 0 {
		t.Fatalf("outcome carries no dead-store diagnostics: %v", out.Diagnostics)
	}
	direct, err := diag.AnalyzeProgram(compileSrc(t, src), diag.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Diagnostics, direct) {
		t.Fatalf("pipeline diagnostics differ from direct analysis:\n%v\nvs\n%v", out.Diagnostics, direct)
	}
}

// TestPressureRuleMatchesTable3 checks that "pressure before promotion"
// has one definition: on every Table 3 routine, the pressure-hotspot
// rule's largest reported pressure at threshold 1 (every block fires)
// equals Table 3's colors before promotion.
func TestPressureRuleMatchesTable3(t *testing.T) {
	rows, err := report.Table3(report.Options{})
	if err != nil {
		t.Fatal(err)
	}
	peak := map[string]int{} // "benchmark/routine" -> largest pressure
	for _, w := range workload.Suite() {
		findings := analyze(t, w.Src, diag.Options{Rules: []string{"pressure-hotspot"}, PressureThreshold: 1})
		for _, f := range findings {
			var block, live int
			if _, err := fmt.Sscanf(f.Detail, "b%d keeps %d values live", &block, &live); err != nil {
				t.Fatalf("%s/%s: unparsed finding %q: %v", w.Name, f.Func, f.Detail, err)
			}
			key := w.Name + "/" + f.Func
			peak[key] = max(peak[key], live)
		}
	}
	if len(rows) < 10 {
		t.Fatalf("vacuous: %d Table 3 rows", len(rows))
	}
	for _, r := range rows {
		key := r.Benchmark + "/" + r.Routine
		if got := peak[key]; got != r.ColorsBefore {
			t.Errorf("%s: pressure-hotspot peak %d, Table 3 colors before %d", key, got, r.ColorsBefore)
		}
	}
	t.Logf("%d Table 3 routines matched", len(rows))
}
