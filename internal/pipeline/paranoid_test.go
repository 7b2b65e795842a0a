package pipeline_test

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// TestParanoidOverCorpus is the acceptance sweep: every benchmark
// workload and every parser seed-corpus program must survive
// CheckLevel=Paranoid — boundary verification after every stage plus
// the semantic differential check — under all four algorithms, with
// no degradations.
func TestParanoidOverCorpus(t *testing.T) {
	type prog struct{ name, src string }
	var corpus []prog
	for _, w := range workload.Suite() {
		corpus = append(corpus, prog{"workload/" + w.Name, w.Src})
	}
	for _, p := range corpusSources(t) {
		corpus = append(corpus, p)
	}
	for seed := int64(0); seed < 6; seed++ {
		corpus = append(corpus, prog{
			"generated/" + strconv.FormatInt(seed, 10),
			workload.Generate(workload.DefaultGenConfig(seed)),
		})
	}

	algs := []pipeline.Algorithm{
		pipeline.AlgSSA, pipeline.AlgBaseline, pipeline.AlgMemOpt, pipeline.AlgNone,
	}
	for _, p := range corpus {
		p := p
		t.Run(p.name, func(t *testing.T) {
			t.Parallel()
			for _, alg := range algs {
				out, err := pipeline.Run(p.src, pipeline.Options{
					Algorithm:       alg,
					Check:           pipeline.CheckParanoid,
					PreMemOpts:      alg == pipeline.AlgSSA,
					SkipMeasurement: true,
				})
				if err != nil {
					t.Fatalf("%v: %v", alg, err)
				}
				if len(out.Degraded) != 0 {
					t.Fatalf("%v: degradations on healthy corpus program: %v", alg, out.Degraded)
				}
			}
		})
	}
}

// TestParanoidAlternatePaths runs the paranoid differential with each
// of the two interpreter paths as the primary, so the cross-check of
// the other one (the engine when the reference is primary, and the
// reference behind the engine) executes on real promoted code.
func TestParanoidAlternatePaths(t *testing.T) {
	src := workload.Suite()[0].Src
	for _, primary := range []struct {
		name string
		opts interp.Options
	}{
		{"legacy", interp.Options{Legacy: true}},
		{"bytecode", interp.Options{}},
	} {
		primary := primary
		t.Run(primary.name, func(t *testing.T) {
			t.Parallel()
			out, err := pipeline.Run(src, pipeline.Options{
				Algorithm:       pipeline.AlgSSA,
				Check:           pipeline.CheckParanoid,
				Interp:          primary.opts,
				SkipMeasurement: true,
			})
			if err != nil {
				t.Fatalf("primary %s: %v", primary.name, err)
			}
			if len(out.Degraded) != 0 {
				t.Fatalf("primary %s: unexpected degradations: %v", primary.name, out.Degraded)
			}
		})
	}
}

// corpusSources loads the mini-C programs from the parser fuzz seed
// corpus, skipping entries the frontend rejects (they seed error
// paths).
func corpusSources(t *testing.T) []struct{ name, src string } {
	t.Helper()
	dir := filepath.Join("..", "source", "testdata", "fuzz", "FuzzParser")
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("reading corpus: %v", err)
	}
	var progs []struct{ name, src string }
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		// Corpus format: header line, then string("...") entries.
		for _, line := range strings.Split(string(data), "\n") {
			line = strings.TrimSpace(line)
			if !strings.HasPrefix(line, "string(") {
				continue
			}
			src, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(line, "string("), ")"))
			if err != nil {
				t.Fatalf("%s: bad corpus entry: %v", e.Name(), err)
			}
			if _, perr := pipeline.Run(src, pipeline.Options{
				Algorithm:       pipeline.AlgNone,
				SkipMeasurement: true,
				StaticProfile:   true,
			}); perr != nil {
				continue // seeds error paths, not the corpus sweep
			}
			progs = append(progs, struct{ name, src string }{"corpus/" + e.Name(), src})
		}
	}
	if len(progs) < 4 {
		t.Fatalf("only %d usable corpus programs; corpus missing?", len(progs))
	}
	return progs
}
