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
	"repro/internal/cfg"
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
// entry block in seven copies and a jmp: the entry's run folds into a
// bcCopyJmp, the body's into the arith+jump of the add before it.
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
		switch {
		case in.op == bcCopyJmp:
			return int(in.b)
		case in.op >= bcAddJmp && in.op <= bcShrJmp:
			return int(in.aux2) - 1
		}
		return 0
	}); got != 7+4 {
		t.Fatalf("main folds %d copies into its jumps, want 11", got)
	}
	sweepMaxSteps(t, foldedLoopSrc)
}

// fusedLoopSrc adds two global accumulators to foldedLoopSrc's loop and
// moves its increment last, so main runs, on every iteration, a fused
// load+arith+store (g = g + i), a fused load+arith (h * 3) and one more
// load+arith+store (the load of g, the add, the store of h) besides its
// fused cmp+br (i < 5) and the arith+jump that ends the body with the
// increment's folded copy; the print after the loop runs one more
// load+arith (g + h).
const fusedLoopSrc = `
int g;
int h;
void main() {
	int i; int a; int b; int t;
	i = 0; a = 1; b = 2;
	while (i < 5) { g = g + i; h = h * 3 + g; t = a; a = b; b = t; i = i + 1; }
	print(a);
	print(g + h);
}`

// fusedFamilies names every fused family by its opcodes.
var fusedFamilies = map[string][]bcOp{
	"cmp+br":           {bcEqBr, bcNeBr, bcLtBr, bcLeBr, bcGtBr, bcGeBr},
	"load+arith":       {bcLoadAdd, bcLoadSub, bcLoadMul, bcLoadAnd, bcLoadOr, bcLoadXor, bcLoadShl, bcLoadShr},
	"load+arith+store": {bcLoadAddSt, bcLoadSubSt, bcLoadMulSt, bcLoadAndSt, bcLoadOrSt, bcLoadXorSt, bcLoadShlSt, bcLoadShrSt},
	"arith+store":      {bcAddSt, bcSubSt, bcMulSt, bcAndSt, bcOrSt, bcXorSt, bcShlSt, bcShrSt},
	"arith+jump":       {bcAddJmp, bcSubJmp, bcMulJmp, bcAndJmp, bcOrJmp, bcXorJmp, bcShlJmp, bcShrJmp},
}

// requireFused fails unless prog's main compiles to at least one
// instruction of each named fused family.
func requireFused(t *testing.T, prog *ir.Program, names ...string) {
	t.Helper()
	for _, name := range names {
		if progOps(prog, func(in bcInstr) int {
			if slices.Contains(fusedFamilies[name], in.op) {
				return 1
			}
			return 0
		}) == 0 {
			t.Fatalf("main compiles to no fused %s", name)
		}
	}
}

// TestBytecodeStepLimitInFusedPairs sweeps MaxSteps across fusedLoopSrc,
// so the limit also lands on the later steps of every fused form, which
// the engine charges without a check or with only a step-limit check.
func TestBytecodeStepLimitInFusedPairs(t *testing.T) {
	requireFused(t, compileSource(t, fusedLoopSrc), "cmp+br", "load+arith", "load+arith+store", "arith+jump")
	sweepMaxSteps(t, fusedLoopSrc)
}

// chainSrc nests three else-less ifs in a loop. After cfg.Normalize
// splits the critical edges, the inner joins and the split blocks only
// jump, in chains up to three blocks long, all ending at the loop
// latch; x's assignment gives the SSA form phis in those joins.
const chainSrc = `
int g;
void main() {
	int i; int x;
	while (i < 6) {
		x = 0;
		if (i > 1) { if (i < 4) { if (i == 2) { g = g + i; x = i; } } }
		g = g + x;
		i = i + 1;
	}
	print(g);
}`

// normalized compiles src and normalizes every function, as the
// pipeline does before its training run.
func normalized(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog := compileSource(t, src)
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

// inSSA is normalized with main in SSA form.
func inSSA(t *testing.T, src string) *ir.Program {
	t.Helper()
	prog := normalized(t, src)
	if _, err := ssa.Build(prog.Func("main")); err != nil {
		t.Fatal(err)
	}
	return prog
}

// longestChain returns the most jump-only blocks one edge of code is
// threaded through.
func longestChain(code *bcCode) int {
	most := 0
	for _, e := range code.edges {
		n := 0
		for h := e.via; h >= 0; h = code.edges[h].via {
			n++
		}
		most = max(most, n)
	}
	return most
}

// TestBytecodeStepLimitInThreadedChain sweeps MaxSteps across chainSrc,
// normalized and in SSA form, so the limit lands on every step of every
// threaded chain of jump-only blocks (their jumps and the phis of the
// blocks in between), and the profile and opcode counts of every edge a
// chain skips are checked for every limit that lets the run finish.
func TestBytecodeStepLimitInThreadedChain(t *testing.T) {
	for name, build := range map[string]func() *ir.Program{
		"normalized": func() *ir.Program { return normalized(t, chainSrc) },
		"ssa":        func() *ir.Program { return inSSA(t, chainSrc) },
	} {
		t.Run(name, func(t *testing.T) {
			if n := longestChain(mainCode(build())); n < 3 {
				t.Fatalf("longest threaded chain %d, want 3", n)
			}
			sweepProgram(t, build)
		})
	}
}

// blockProgram builds main from blocks holding the given bodies,
// wired by edges: edges[i] lists block i's successors in order.
func blockProgram(bodies [][]*ir.Instr, edges [][]int) *ir.Program {
	prog := ir.NewProgram()
	prog.AddGlobal("g", 1, false, nil)
	f := ir.NewFunction(prog, "main")
	f.NumRegs = 4
	blocks := make([]*ir.Block, len(bodies))
	for i := range blocks {
		blocks[i] = f.NewBlock()
	}
	for i, b := range blocks {
		for _, in := range bodies[i] {
			b.Append(in)
		}
		for _, s := range edges[i] {
			ir.AddEdge(b, blocks[s])
		}
	}
	return prog
}

// jmp returns a new jmp instruction.
func jmp() *ir.Instr { return ir.NewInstr(ir.OpJmp, ir.NoReg) }

// TestBytecodeJumpOnlyCycle runs a cycle of jump-only blocks, one of
// them ending a folded copy run, entered from a jump-only entry:
// compilation must end, the cycle must keep one unthreaded edge, and
// every run must fail with the reference's step-limit error.
func TestBytecodeJumpOnlyCycle(t *testing.T) {
	build := func() *ir.Program {
		cp := ir.NewInstr(ir.OpCopy, 1, ir.RegVal(0))
		return blockProgram([][]*ir.Instr{{jmp()}, {cp, jmp()}, {jmp()}}, [][]int{{1}, {2}, {1}})
	}
	code := mainCode(build())
	if n := longestChain(code); n != 2 || code.edges[2].via != -1 {
		t.Fatalf("longest threaded chain %d, back edge via %d: want the entry's edge through both blocks and the back edge unthreaded", n, code.edges[2].via)
	}
	for max := int64(1); max <= 40; max++ {
		_, berr := Run(build(), Options{MaxSteps: max})
		_, lerr := Run(build(), Options{MaxSteps: max, Legacy: true})
		if !errors.Is(berr, ErrStepLimit) || lerr == nil || berr.Error() != lerr.Error() {
			t.Fatalf("MaxSteps %d: bytecode error %v, legacy error %v", max, berr, lerr)
		}
	}
}

// TestBytecodeJumpOnlyEntry threads edges out of and back into a
// jump-only entry block. The entry and the next block only jump; the
// third counts g up to 4, and until then branches to a block whose
// arith+jump (no folded copies) leads back to the entry, through both
// jump-only blocks.
func TestBytecodeJumpOnlyEntry(t *testing.T) {
	build := func() *ir.Program {
		g := ir.MemLoc{Kind: ir.LocGlobal}
		ld := ir.NewInstr(ir.OpLoad, 0)
		st := ir.NewInstr(ir.OpStore, ir.NoReg, ir.RegVal(1))
		prog := blockProgram([][]*ir.Instr{
			{jmp()},
			{jmp()},
			{
				ld,
				ir.NewInstr(ir.OpAdd, 1, ir.RegVal(0), ir.ConstVal(1)),
				st,
				ir.NewInstr(ir.OpLt, 2, ir.RegVal(1), ir.ConstVal(4)),
				ir.NewInstr(ir.OpBr, ir.NoReg, ir.RegVal(2)),
			},
			{ir.NewInstr(ir.OpAdd, 3, ir.RegVal(3), ir.ConstVal(5)), jmp()},
			{ir.NewInstr(ir.OpPrint, ir.NoReg, ir.RegVal(3)), ir.NewInstr(ir.OpRet, ir.NoReg)},
		}, [][]int{{1}, {2}, {3, 4}, {0}, nil})
		g.Global = prog.FindGlobal("g")
		ld.Loc, st.Loc = g, g
		return prog
	}
	prog := build()
	requireFused(t, prog, "load+arith+store", "cmp+br", "arith+jump")
	if n := longestChain(mainCode(prog)); n != 2 {
		t.Fatalf("longest threaded chain %d, want 2 (the back edge through the entry and the next block)", n)
	}
	sweepProgram(t, build)
	if res, err := Run(build(), Options{}); err != nil || !reflect.DeepEqual(res.Output, []int64{15}) {
		t.Fatalf("run: %v, want output [15]", err)
	}
}

// TestBytecodeStepLimitBeforeThreadedTrap builds chainSrc's SSA form and
// unlinks every jump-only block from the predecessors of its successor
// when that successor has register phis, so the second hop of the
// edges into those blocks would trap. Those edges must not be threaded:
// for every limit the engine fails where and as the reference does.
func TestBytecodeStepLimitBeforeThreadedTrap(t *testing.T) {
	broken := func() *ir.Program {
		prog := inSSA(t, chainSrc)
		for _, b := range prog.Func("main").Blocks {
			if len(b.Instrs) == 1 && b.Instrs[0].Op == ir.OpJmp && slices.ContainsFunc(b.Succs[0].Phis(), func(in *ir.Instr) bool {
				return in.Op == ir.OpPhi
			}) {
				b.Succs[0].RemovePred(b)
			}
		}
		return prog
	}
	full, err := Run(inSSA(t, chainSrc), Options{})
	if err != nil {
		t.Fatal(err)
	}
	traps := 0
	for max := int64(1); max <= full.Steps; max++ {
		_, berr := Run(broken(), Options{MaxSteps: max})
		_, lerr := Run(broken(), Options{MaxSteps: max, Legacy: true})
		if berr == nil || lerr == nil || berr.Error() != lerr.Error() {
			t.Fatalf("MaxSteps %d: bytecode error %v, legacy error %v", max, berr, lerr)
		}
		if !errors.Is(berr, ErrStepLimit) {
			traps++
		}
	}
	if traps == 0 {
		t.Fatal("no limit let the run reach a trapping edge")
	}
}

// missingSrc runs a load+arith+store (the load of g, the add, the store
// of h) and a load+arith (the load of g and the add feeding print).
const missingSrc = `
int g;
int h;
void main() {
	int i;
	i = 5;
	h = g + i;
	print(g + i);
	print(h);
}`

// TestBytecodeFusedMissingGlobal deletes g, then h, from missingSrc's
// globals, so the fused load, then the fused store, addresses the null
// guard. With every limit up to past the fault, the engine must fail
// where and as the reference does: the load faults before the
// arithmetic's step, and the store's step-limit check comes before its
// address check.
func TestBytecodeFusedMissingGlobal(t *testing.T) {
	for _, name := range []string{"g", "h"} {
		build := func() *ir.Program {
			prog := compileSource(t, missingSrc)
			prog.Globals = slices.DeleteFunc(prog.Globals, func(g *ir.Global) bool { return g.Name == name })
			return prog
		}
		requireFused(t, build(), "load+arith", "load+arith+store")
		for max := int64(1); max <= 12; max++ {
			_, berr := Run(build(), Options{MaxSteps: max})
			_, lerr := Run(build(), Options{MaxSteps: max, Legacy: true})
			if berr == nil || lerr == nil || berr.Error() != lerr.Error() {
				t.Fatalf("missing %s, MaxSteps %d: bytecode error %v, legacy error %v", name, max, berr, lerr)
			}
		}
	}
}

// mainCode compiles prog's main.
func mainCode(prog *ir.Program) *bcCode {
	m := &machine{prog: prog}
	m.layoutGlobals()
	return compileBytecode(prog.Func("main"), m.globalBase)
}

// progOps sums count over the bytecode of prog's main.
func progOps(prog *ir.Program, count func(bcInstr) int) int {
	n := 0
	for _, in := range mainCode(prog).ins {
		n += count(in)
	}
	return n
}

// mainOps sums count over the bytecode of src's main.
func mainOps(t *testing.T, src string, count func(bcInstr) int) int {
	return progOps(compileSource(t, src), count)
}

// sweepMaxSteps runs src under every MaxSteps from 1 to two past its
// full step count (sweepProgram).
func sweepMaxSteps(t *testing.T, src string) {
	t.Helper()
	sweepProgram(t, func() *ir.Program { return compileSource(t, src) })
}

// sweepProgram runs the program build returns under every MaxSteps from
// 1 to two past its full step count. For every limit the engine must
// agree with the reference on failure versus success, on the error
// text, and on the whole Result (Steps included) when the run succeeds.
func sweepProgram(t *testing.T, build func() *ir.Program) {
	t.Helper()
	prog := build()
	legacyProg := build()
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
