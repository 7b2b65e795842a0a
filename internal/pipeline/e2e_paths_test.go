package pipeline_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/source"
)

// exampleSources extracts every backquoted string constant from the
// example programs and keeps the ones that compile as mini-C with a
// main — the exact sources the examples feed the pipeline. Parsing the
// Go files (rather than go-running the examples) keeps the test hermetic
// and fast while guaranteeing it tracks the example programs verbatim.
func exampleSources(t *testing.T) map[string]string {
	t.Helper()
	mains, err := filepath.Glob(filepath.Join("..", "..", "examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples/*/main.go found")
	}
	srcs := make(map[string]string)
	for _, file := range mains {
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		example := filepath.Base(filepath.Dir(file))
		n := 0
		ast.Inspect(f, func(node ast.Node) bool {
			lit, ok := node.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING || !strings.HasPrefix(lit.Value, "`") {
				return true
			}
			text := strings.Trim(lit.Value, "`")
			if !strings.Contains(text, "main") {
				return true
			}
			if _, err := source.Compile(text); err != nil {
				return true // other backquoted literal (e.g. expected output)
			}
			srcs[example+"#"+itoa(n)] = text
			n++
			return true
		})
		// Some examples (ssaupdate) build IR programmatically and have no
		// source literal; the floor below catches extraction regressions.
	}
	if len(srcs) < 5 {
		t.Fatalf("extracted only %d example programs; the extractor regressed", len(srcs))
	}
	return srcs
}

// irSources loads the import corpus from internal/irimport/testdata.
func irSources(t *testing.T) map[string]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "irimport", "testdata", "*.ll"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) == 0 {
		t.Fatal("no irimport testdata corpus found")
	}
	srcs := make(map[string]string)
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		srcs[filepath.Base(file)] = string(data)
	}
	return srcs
}

// TestAllProgramsAllPaths is the end-to-end sweep: every example
// program and every imported-IR corpus program goes through the full
// promotion pipeline, and the promoted result runs on both execution
// paths, the bytecode engine and the reference interpreter, with
// identical observables. Run under -race in CI
// (make race), this also shakes out data races in the concurrent
// transform chains and the bytecode compiler.
func TestAllProgramsAllPaths(t *testing.T) {
	type testCase struct {
		src  string
		lang string
	}
	cases := make(map[string]testCase)
	for name, src := range exampleSources(t) {
		cases["example/"+name] = testCase{src, ""}
	}
	for name, src := range irSources(t) {
		cases["imported/"+name] = testCase{src, irimport.LangIR}
	}

	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			out, err := pipeline.Run(tc.src, pipeline.Options{
				Lang:   tc.lang,
				Check:  pipeline.CheckParanoid,
				Interp: interp.Options{MaxSteps: 50_000_000},
			})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			if len(out.Degraded) > 0 {
				t.Errorf("degraded: %v", out.DegradedFuncs())
			}
			if !reflect.DeepEqual(out.Before.Output, out.After.Output) ||
				out.Before.ReturnValue != out.After.ReturnValue {
				t.Fatalf("promotion changed observables: %v/%d vs %v/%d",
					out.Before.Output, out.Before.ReturnValue,
					out.After.Output, out.After.ReturnValue)
			}
			want, err := interp.Run(out.Prog, interp.Options{Legacy: true, MaxSteps: 50_000_000})
			if err != nil {
				t.Fatalf("legacy run: %v", err)
			}
			got, err := interp.Run(out.Prog, interp.Options{MaxSteps: 50_000_000})
			if err != nil {
				t.Fatalf("bytecode run: %v", err)
			}
			if !reflect.DeepEqual(got.Output, want.Output) ||
				got.ReturnValue != want.ReturnValue ||
				!reflect.DeepEqual(got.Globals, want.Globals) {
				t.Errorf("bytecode path diverges from legacy: %v/%d vs %v/%d",
					got.Output, got.ReturnValue, want.Output, want.ReturnValue)
			}
		})
	}
}

func itoa(n int) string {
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
