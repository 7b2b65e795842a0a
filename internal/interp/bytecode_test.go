package interp

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/source"
	"repro/internal/ssa"
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
		// A literal zero divisor stays the checked division, fault and
		// message included; only nonzero constants compile without one.
		{"division by literal zero", `int g; void main() { int x; x = g; x = x / 0; print(x); }`, Options{}},
		{"modulo by literal zero", `int g; void main() { int x; x = g; x = x % 0; print(x); }`, Options{}},
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

// foldedLoopSrc swaps two variables through a temporary at the end of
// a loop body, so the body block ends in four copies and a jmp, and the
// entry block in seven copies and a jmp: both fold into bcCopyJmp.
const foldedLoopSrc = `
void main() {
	int i; int a; int b; int t;
	i = 0; a = 1; b = 2;
	while (i < 5) { i = i + 1; t = a; a = b; b = t; }
	print(a);
	print(b);
}`

// TestBytecodeStepLimitInFoldedRun sweeps MaxSteps across the whole
// run of foldedLoopSrc, so the limit lands on every folded copy and on
// every jump that ends a folded run.
func TestBytecodeStepLimitInFoldedRun(t *testing.T) {
	if got := mainOps(t, foldedLoopSrc, func(in bcInstr) int {
		if in.op == bcCopyJmp {
			return int(in.b)
		}
		return 0
	}); got != 7+4 {
		t.Fatalf("main folds %d copies into its jumps, want 11", got)
	}
	sweepMaxSteps(t, foldedLoopSrc)
}

// fusedLoopSrc adds a global accumulator to foldedLoopSrc's loop, so
// main also runs a fused load+add (g + i) on every iteration besides
// its fused cmp+br (i < 5).
const fusedLoopSrc = `
int g;
void main() {
	int i; int a; int b; int t;
	i = 0; a = 1; b = 2;
	while (i < 5) { i = i + 1; g = g + i; t = a; a = b; b = t; }
	print(a);
	print(g);
}`

// TestBytecodeStepLimitInFusedPairs sweeps MaxSteps across fusedLoopSrc,
// so the limit also lands on the second half of a fused cmp+br and of a
// fused load+arith, whose steps the engine charges without a check.
func TestBytecodeStepLimitInFusedPairs(t *testing.T) {
	for name, ops := range map[string][]bcOp{
		"cmp+br":     {bcEqBr, bcNeBr, bcLtBr, bcLeBr, bcGtBr, bcGeBr},
		"load+arith": {bcLoadAdd, bcLoadSub, bcLoadMul, bcLoadAnd, bcLoadOr, bcLoadXor, bcLoadShl, bcLoadShr},
	} {
		if mainOps(t, fusedLoopSrc, func(in bcInstr) int {
			if slices.Contains(ops, in.op) {
				return 1
			}
			return 0
		}) == 0 {
			t.Fatalf("main compiles to no fused %s", name)
		}
	}
	sweepMaxSteps(t, fusedLoopSrc)
}

// mainOps sums count over the bytecode of src's main.
func mainOps(t *testing.T, src string, count func(bcInstr) int) int {
	prog := compileSource(t, src)
	m := &machine{prog: prog}
	m.layoutGlobals()
	n := 0
	for _, in := range compileBytecode(prog.Func("main"), m.globalBase).ins {
		n += count(in)
	}
	return n
}

// sweepMaxSteps runs src under every MaxSteps from 1 to two past its
// full step count. For every limit the engine must agree with the
// reference on failure versus success, on the error text, and on the
// whole Result (Steps included) when the run succeeds.
func sweepMaxSteps(t *testing.T, src string) {
	t.Helper()
	prog := compileSource(t, src)
	legacyProg := compileSource(t, src)
	full, err := Run(legacyProg, Options{Legacy: true})
	if err != nil {
		t.Fatal(err)
	}
	for max := int64(1); max <= full.Steps+2; max++ {
		bres, berr := Run(prog, Options{MaxSteps: max, CollectProfile: true})
		lres, lerr := Run(legacyProg, Options{MaxSteps: max, CollectProfile: true, Legacy: true})
		if (berr == nil) != (lerr == nil) {
			t.Fatalf("MaxSteps %d: bytecode error %v, legacy error %v", max, berr, lerr)
		}
		if wantErr := max < full.Steps; (berr != nil) != wantErr {
			t.Fatalf("MaxSteps %d of %d: error %v", max, full.Steps, berr)
		}
		if berr != nil {
			if berr.Error() != lerr.Error() || bres != nil || lres != nil {
				t.Fatalf("MaxSteps %d: bytecode %q (result %v), legacy %q (result %v)", max, berr, bres != nil, lerr, lres != nil)
			}
			continue
		}
		requireSameResult(t, "MaxSteps "+strconv.FormatInt(max, 10), "bytecode", "legacy", bres, lres)
	}
}

// TestBytecodeStepLimitBeforeTrapEdge builds foldedLoopSrc's SSA form
// and unlinks every jump into the loop header from the header's
// predecessors, so the entry block's folded copy run ends on an edge
// into register phis that traps. Where the limit lands inside that run
// the reference stops with the step-limit error before the edge; the
// engine, which charges the run unchecked, must too.
func TestBytecodeStepLimitBeforeTrapEdge(t *testing.T) {
	broken := func() *ir.Program {
		prog := compileSource(t, foldedLoopSrc)
		f := prog.Func("main")
		if _, err := ssa.Build(f); err != nil {
			t.Fatal(err)
		}
		for _, b := range f.Blocks {
			if term := b.Term(); term != nil && term.Op == ir.OpJmp && len(b.Succs[0].Phis()) > 0 {
				b.Succs[0].RemovePred(b)
			}
		}
		return prog
	}
	prog, legacyProg := broken(), broken()
	traps := 0
	for max := int64(1); max <= 64; max++ {
		_, berr := Run(prog, Options{MaxSteps: max})
		_, lerr := Run(legacyProg, Options{MaxSteps: max, Legacy: true})
		if berr == nil || lerr == nil || berr.Error() != lerr.Error() {
			t.Fatalf("MaxSteps %d: bytecode error %v, legacy error %v", max, berr, lerr)
		}
		if !errors.Is(berr, ErrStepLimit) {
			traps++
		}
	}
	if traps == 0 {
		t.Fatal("no limit let the run reach the trapping edge")
	}
}

// TestBytecodeFoldIntoUnlistedPredecessor unlinks every jump's source
// from its target's predecessor list: broken wiring that both paths
// tolerate into a block without register phis. The folded copies ride
// on those edges, and must still run.
func TestBytecodeFoldIntoUnlistedPredecessor(t *testing.T) {
	unlinked := func() *ir.Program {
		prog := compileSource(t, foldedLoopSrc)
		for _, b := range prog.Func("main").Blocks {
			if term := b.Term(); term != nil && term.Op == ir.OpJmp {
				b.Succs[0].RemovePred(b)
			}
		}
		return prog
	}
	bc, err := Run(unlinked(), Options{CollectProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	legacy, err := Run(unlinked(), Options{CollectProfile: true, Legacy: true})
	if err != nil {
		t.Fatal(err)
	}
	requireSameResult(t, "unlinked", "bytecode", "legacy", bc, legacy)
	if want := []int64{2, 1}; !reflect.DeepEqual(bc.Output, want) {
		t.Fatalf("output %v, want %v", bc.Output, want)
	}
}
