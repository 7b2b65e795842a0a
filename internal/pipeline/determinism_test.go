package pipeline_test

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// runReport runs the pipeline and returns the canonical outcome report
// plus the printed transformed program.
func runReport(t *testing.T, src string, opts pipeline.Options) (string, string) {
	t.Helper()
	out, err := pipeline.Run(src, opts)
	if err != nil {
		t.Fatal(err)
	}
	return out.Report(), out.Prog.String()
}

// TestRunTwiceIdentical runs every corpus entry through the pipeline
// twice in the same process and requires byte-identical outcome reports
// and transformed IR. Go randomizes map iteration order per range
// statement, so any pass that lets a map's order leak into phi
// placement, web numbering, or statistics shows up here as a diff
// between the two runs.
func TestRunTwiceIdentical(t *testing.T) {
	corpus := workload.Suite()
	for i := 0; i < 6; i++ {
		corpus = append(corpus, workload.CorpusEntry(3, i))
	}
	opts := pipeline.Options{
		PreMemOpts: true,
		Check:      pipeline.CheckBoundaries,
	}
	for _, w := range corpus {
		report1, prog1 := runReport(t, w.Src, opts)
		report2, prog2 := runReport(t, w.Src, opts)
		if report1 != report2 {
			t.Errorf("%s: reports differ between identical runs:\n--- first\n%s\n--- second\n%s",
				w.Name, report1, report2)
		}
		if prog1 != prog2 {
			t.Errorf("%s: transformed programs differ between identical runs", w.Name)
		}
	}
}

// TestRunTwiceIdenticalLegacy repeats the corpus-twice check with the
// reference interpreter doing the training and measurement runs, so
// the spec the bytecode engine is diffed against stays deterministic
// too.
func TestRunTwiceIdenticalLegacy(t *testing.T) {
	opts := pipeline.Options{PreMemOpts: true}
	opts.Interp.Legacy = true
	for _, w := range workload.Suite() {
		report1, prog1 := runReport(t, w.Src, opts)
		report2, prog2 := runReport(t, w.Src, opts)
		if report1 != report2 {
			t.Errorf("%s: legacy reports differ between identical runs", w.Name)
		}
		if prog1 != prog2 {
			t.Errorf("%s: legacy transformed programs differ between identical runs", w.Name)
		}
	}
}

// TestCachedMatchesUncachedReport asserts that sharing one dominator
// tree across a transform chain is semantically invisible. At
// CheckParanoid every in-SSA boundary check compares the chain's tree
// and frontiers with a fresh rebuild and a mismatch degrades the
// function, so that run consumes exactly the fresh analyses; its report
// and IR must be byte-identical to a CheckOff run's. It covers the
// suite and the imported real-IR programs.
func TestCachedMatchesUncachedReport(t *testing.T) {
	for _, w := range append(workload.Suite(), workload.ImportedSuite()...) {
		opts := pipeline.Options{PreMemOpts: true, Lang: w.Lang}
		cachedReport, cachedProg := runReport(t, w.Src, opts)
		opts.Check = pipeline.CheckParanoid
		paranoidReport, paranoidProg := runReport(t, w.Src, opts)
		if cachedReport != paranoidReport {
			t.Errorf("%s: CheckOff and CheckParanoid reports differ:\n--- cached\n%s\n--- paranoid\n%s",
				w.Name, cachedReport, paranoidReport)
		}
		if cachedProg != paranoidProg {
			t.Errorf("%s: CheckOff and CheckParanoid transformed programs differ", w.Name)
		}
	}
}
