package interp

import (
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/workload"
)

// runPath compiles src and executes it with the given options. Each
// path runs on its own freshly compiled program instance, keeping the
// comparison airtight even though interpretation does not mutate IR.
func runPath(t *testing.T, src string, opts Options) *Result {
	t.Helper()
	res, err := Run(compileSource(t, src), opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// compileSource builds a program for direct Run calls.
func compileSource(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog, err := source.Compile(src)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return prog
}

// requireSameResult holds the two interpretation paths to the full
// observable contract: output, return value, step count, opcode
// counts, global images, and the block/edge profile.
func requireSameResult(t *testing.T, name, aPath, bPath string, a, b *Result) {
	t.Helper()
	if !reflect.DeepEqual(a.Output, b.Output) {
		t.Errorf("%s: output differs: %s %v %s %v", name, aPath, a.Output, bPath, b.Output)
	}
	if a.ReturnValue != b.ReturnValue {
		t.Errorf("%s: return value differs: %s %d %s %d", name, aPath, a.ReturnValue, bPath, b.ReturnValue)
	}
	if a.Steps != b.Steps {
		t.Errorf("%s: steps differ: %s %d %s %d", name, aPath, a.Steps, bPath, b.Steps)
	}
	if !reflect.DeepEqual(a.OpCounts, b.OpCounts) {
		t.Errorf("%s: opcode counts differ:\n%s %v\n%s %v", name, aPath, a.OpCounts, bPath, b.OpCounts)
	}
	if !reflect.DeepEqual(a.Globals, b.Globals) {
		t.Errorf("%s: global images differ", name)
	}
	if (a.Profile == nil) != (b.Profile == nil) {
		t.Fatalf("%s: one path lost its profile", name)
	}
	if a.Profile != nil && !reflect.DeepEqual(a.Profile.Funcs, b.Profile.Funcs) {
		t.Errorf("%s: profiles differ:\n%s %+v\n%s %+v", name, aPath, a.Profile.Funcs, bPath, b.Profile.Funcs)
	}
}

// twoWay runs src on the bytecode engine and on the reference
// interpreter, each on its own program instance, and requires identical
// results.
func twoWay(t *testing.T, name, src string) {
	t.Helper()
	bc := runPath(t, src, Options{CollectProfile: true})
	legacy := runPath(t, src, Options{CollectProfile: true, Legacy: true})
	requireSameResult(t, name, "bytecode", "legacy", bc, legacy)
}

// TestBytecodeMatchesLegacyAndFast is the engine-vs-reference
// differential over the full workload suite plus generated programs,
// including configs tuned toward the shapes that stress the compiler:
// helper-call fanout, arrays, deep nesting, and pointer traffic.
func TestBytecodeMatchesLegacyAndFast(t *testing.T) {
	type gen struct {
		seed       int64
		helpers    int
		arrays     int
		depth      int
		ptrPercent int
	}
	tuned := []gen{
		{1, 3, 2, 2, 30},
		{7, 0, 0, 1, 0},
		{42, 2, 1, 3, 80},
		{1998, 4, 2, 2, 50},
		{-3, 1, 2, 1, 99},
	}

	for _, w := range workload.Suite() {
		twoWay(t, "suite/"+w.Name, w.Src)
	}
	for i := 0; i < 8; i++ {
		src := workload.Generate(workload.DefaultGenConfig(workload.DeriveSeed(41, i)))
		twoWay(t, "gen/"+strconv.Itoa(i), src)
	}
	for _, g := range tuned {
		cfg := workload.DefaultGenConfig(g.seed)
		cfg.NumHelpers = g.helpers
		cfg.NumArrays = g.arrays
		cfg.MaxDepth = g.depth
		cfg.PtrChance = float64(g.ptrPercent) / 100
		twoWay(t, "tuned/"+strconv.FormatInt(g.seed, 10), workload.Generate(cfg))
	}
}

// TestBytecodeParserCorpus sweeps the parser fuzz seed corpus through
// the engine-vs-reference differential, skipping entries the frontend
// rejects (they seed error paths).
func TestBytecodeParserCorpus(t *testing.T) {
	dir := filepath.Join("..", "source", "testdata", "fuzz", "FuzzParser")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	ran := 0
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: bad corpus entry: %v", e.Name(), err)
			}
			prog, err := source.Compile(src)
			if err != nil || prog.Func("main") == nil {
				continue
			}
			if err := alias.Analyze(prog); err != nil {
				continue
			}
			if _, err := Run(prog, Options{Legacy: true}); err != nil {
				continue // seeds runtime error paths; covered by TestBytecodeErrorParity
			}
			twoWay(t, "corpus/"+e.Name(), src)
			ran++
		}
	}
	if ran < 4 {
		t.Fatalf("only %d usable corpus programs; corpus missing?", ran)
	}
}

// recursionSrc recurses deeply with multiple live activations per level.
const recursionSrc = `
int fib(int n) {
	if (n < 2) { return n; }
	return fib(n - 1) + fib(n - 2);
}
int acc;
void twist(int d, int salt) {
	int local;
	local = d * 3 + salt;
	if (d > 0) {
		twist(d - 1, local);
		twist(d - 1, local + 1);
	}
	acc = acc + local;
}
void main() {
	print(fib(17));
	twist(8, 5);
	print(acc);
}`

// TestBytecodeRecursion exercises the register arena's growth path
// (reallocation without copying, live parent frames on the old backing
// array) under deep recursion with multiple live activations.
func TestBytecodeRecursion(t *testing.T) {
	src := recursionSrc
	bc := runPath(t, src, Options{CollectProfile: true})
	legacy := runPath(t, src, Options{CollectProfile: true, Legacy: true})
	requireSameResult(t, "recursion", "bytecode", "legacy", bc, legacy)
	if bc.Output[0] != 1597 {
		t.Fatalf("fib(17) = %d, want 1597", bc.Output[0])
	}
}

// TestBytecodeErrorParity holds the bytecode path to the legacy
// interpreter's exact error behavior: same message, and no Result.
func TestBytecodeErrorParity(t *testing.T) {
	cases := []struct {
		name string
		src  string
		opts Options
	}{
		{"step limit", `void main() { int i; i = 0; while (i < 1000000) { i = i + 1; } }`,
			Options{MaxSteps: 10_000}},
		{"division by zero", `int g; void main() { int x; x = 7 / g; print(x); }`, Options{}},
		{"modulo by zero", `int g; void main() { int x; x = 7 % g; print(x); }`, Options{}},
		{"call depth", `int down(int n) { return down(n + 1); } void main() { print(down(0)); }`,
			Options{MaxDepth: 100}},
		{"index out of range", `int a[4]; void main() { int i; i = 9; a[i] = 1; }`, Options{}},
	}
	for _, tc := range cases {
		prog := compileSource(t, tc.src)
		bres, berr := Run(prog, tc.opts)
		lopts := tc.opts
		lopts.Legacy = true
		lres, lerr := Run(compileSource(t, tc.src), lopts)
		if berr == nil || lerr == nil {
			t.Fatalf("%s: expected both paths to fail, bytecode %v legacy %v", tc.name, berr, lerr)
		}
		if berr.Error() != lerr.Error() {
			t.Errorf("%s: error differs:\nbytecode %q\nlegacy   %q", tc.name, berr, lerr)
		}
		if bres != nil || lres != nil {
			t.Errorf("%s: failed run leaked a Result", tc.name)
		}
	}
}
