package pipeline_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

var update = flag.Bool("update", false, "rewrite testdata/identity.golden from the current outputs")

// identityGolden holds one "<pair> <exact> <canonical>" line per
// (program, options) pair of the output-identity matrix, sorted by pair
// name: the sha256 digests identityDigest and canonicalDigest compute.
var identityGolden = filepath.Join("testdata", "identity.golden")

// identityPair is one (program, options) pair of the matrix. Its name is
// "<options>/<program>".
type identityPair struct {
	name string
	src  string
	opts pipeline.Options
}

// Gen-static corpus parameters: the benchmark's gen-static workload
// draws genPerBand programs per equal-width size band of "large"
// generated sources with LoopMax 3, between genMinBytes and genMaxBytes.
const (
	genLoopMax  = 3
	genMinBytes = 3000
	genMaxBytes = 7000
	genBands    = 16
	genPerBand  = 8
)

// genStaticCorpus rebuilds the benchmark's gen-static corpus for seed:
// candidates in index order, each kept while its size band has room.
func genStaticCorpus(t *testing.T, seed int64) []workload.Workload {
	t.Helper()
	width := (genMaxBytes - genMinBytes) / genBands
	fill := make([]int, genBands)
	var ws []workload.Workload
	for i := 0; len(ws) < genBands*genPerBand; i++ {
		cfg, err := workload.SizedGenConfig(workload.DeriveSeed(seed, i), "large")
		if err != nil {
			t.Fatal(err)
		}
		cfg.LoopMax = genLoopMax
		src := workload.Generate(cfg)
		if len(src) < genMinBytes {
			continue
		}
		band := (len(src) - genMinBytes) / width
		if band >= genBands || fill[band] == genPerBand {
			continue
		}
		fill[band]++
		ws = append(ws, workload.Workload{Name: fmt.Sprintf("gen%04d", i), Src: src})
	}
	return ws
}

// identityPairs builds the matrix: the gen-static corpus of seeds 1 and
// 7 on the promote-only path; the suite plus the imported suite under
// each option set that changes what the pipeline does; 32 medium
// generated programs under default options (no input, so training and
// measurement see the same run).
func identityPairs(t *testing.T) []identityPair {
	t.Helper()
	var pairs []identityPair
	add := func(label string, w workload.Workload, opts pipeline.Options) {
		opts.Lang = w.Lang
		pairs = append(pairs, identityPair{name: label + "/" + w.Name, src: w.Src, opts: opts})
	}
	for _, seed := range []int64{1, 7} {
		for _, w := range genStaticCorpus(t, seed) {
			add(fmt.Sprintf("gen-static-s%d", seed), w, pipeline.Options{StaticProfile: true, SkipMeasurement: true})
		}
	}
	suite := append(workload.Suite(), workload.ImportedSuite()...)
	sets := []struct {
		label string
		opts  pipeline.Options
	}{
		{"default", pipeline.Options{}},
		{"cap4", pipeline.Options{PressureCap: 4}},
		{"whole-function", pipeline.Options{WholeFunctionScope: true}},
		{"pre-memopts", pipeline.Options{PreMemOpts: true}},
		{"alg-memopt", pipeline.Options{Algorithm: pipeline.AlgMemOpt}},
		{"alg-baseline", pipeline.Options{Algorithm: pipeline.AlgBaseline}},
		{"paper-profit", pipeline.Options{PaperProfitFormula: true}},
		{"paranoid", pipeline.Options{Check: pipeline.CheckParanoid}},
	}
	for _, s := range sets {
		for _, w := range suite {
			add(s.label, w, s.opts)
		}
	}
	medium := workload.Corpus(1, 32)
	for _, w := range medium {
		add("gen-medium-s1", w, pipeline.Options{})
	}
	return pairs
}

// identityDigest hashes what a pair's run produces: the canonical
// report followed by the printed promoted program.
func identityDigest(out *pipeline.Outcome) string {
	return sha256Hex(out.Report() + out.Prog.String())
}

// canonicalDigest is identityDigest with every function's registers
// renumbered by first appearance in the printed function. A change that
// only numbers registers differently (for example by building fewer
// dead phis, which are deleted before output but take register numbers
// first) moves the exact digest and leaves this one alone.
func canonicalDigest(out *pipeline.Outcome) string {
	funcs := make([]*ir.Function, len(out.Prog.Funcs))
	for i, f := range out.Prog.Funcs {
		funcs[i] = renumberRegs(f)
	}
	prog := &ir.Program{Funcs: funcs, Globals: out.Prog.Globals}
	return sha256Hex(out.Report() + prog.String())
}

// renumberRegs returns a clone of f whose registers are numbered in the
// order the printer first shows them: parameters, then each
// instruction's destination before its arguments.
func renumberRegs(f *ir.Function) *ir.Function {
	c := f.Clone()
	num := make([]ir.RegID, c.NumRegs)
	for i := range num {
		num[i] = ir.NoReg
	}
	next := ir.RegID(0)
	rename := func(r ir.RegID) ir.RegID {
		if num[r] == ir.NoReg {
			num[r] = next
			next++
		}
		return num[r]
	}
	for i, p := range c.Params {
		c.Params[i] = rename(p)
	}
	for _, b := range c.Blocks {
		for _, in := range b.Instrs {
			if in.HasDst() {
				in.Dst = rename(in.Dst)
			}
			for i, a := range in.Args {
				if !a.IsConst() {
					in.Args[i] = ir.RegVal(rename(a.Reg()))
				}
			}
		}
	}
	return c
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// digests is a pair's two golden digests.
type digests struct{ exact, canonical string }

// readIdentityGolden parses the golden file into pair name → digests.
func readIdentityGolden(t *testing.T) map[string]digests {
	t.Helper()
	f, err := os.Open(identityGolden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	defer f.Close()
	want := make(map[string]digests)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) != 3 {
			t.Fatalf("%s: malformed line %q", identityGolden, sc.Text())
		}
		want[fields[0]] = digests{exact: fields[1], canonical: fields[2]}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestOutputIdentity is the output-identity check: every pair's report
// and promoted IR must hash to the exact digest committed in
// testdata/identity.golden. A change meant to alter output reruns the
// test with -update (make golden) and says in its change log which
// pairs moved and why; any other change must leave the file as it is.
// On a mismatch the test also lists the changed pairs whose canonical
// digest moved, which separates real output changes from register
// renumbering.
func TestOutputIdentity(t *testing.T) {
	pairs := identityPairs(t)
	got := make(map[string]digests, len(pairs))
	names := make([]string, 0, len(pairs))
	for _, p := range pairs {
		if _, dup := got[p.name]; dup {
			t.Fatalf("duplicate pair %s", p.name)
		}
		out, err := pipeline.Run(p.src, p.opts)
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		got[p.name] = digests{exact: identityDigest(out), canonical: canonicalDigest(out)}
		names = append(names, p.name)
	}
	sort.Strings(names)

	if *update {
		var sb strings.Builder
		for _, name := range names {
			fmt.Fprintf(&sb, "%s %s %s\n", name, got[name].exact, got[name].canonical)
		}
		if err := os.WriteFile(identityGolden, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}

	want := readIdentityGolden(t)
	var changed, canonChanged, added, missing []string
	for _, name := range names {
		switch d, ok := want[name]; {
		case !ok:
			added = append(added, name)
		case d.exact != got[name].exact:
			changed = append(changed, name)
			if d.canonical != got[name].canonical {
				canonChanged = append(canonChanged, name)
			}
		}
	}
	for name := range want {
		if _, ok := got[name]; !ok {
			missing = append(missing, name)
		}
	}
	sort.Strings(missing)
	if len(changed)+len(added)+len(missing) > 0 {
		t.Errorf("output differs from %s on %d of %d pairs (rerun with -update if the change is meant)\nchanged: %v\nchanged after register renumbering too: %v\nnot in golden: %v\nno longer produced: %v",
			identityGolden, len(changed), len(pairs), changed, canonChanged, added, missing)
	}
}
