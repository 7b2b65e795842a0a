package pipeline_test

import (
	"reflect"
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/irimport"
	"repro/internal/pipeline"
	"repro/internal/source"
	"repro/internal/workload"
)

// freshBaseline compiles, alias-analyzes and normalizes src on its own,
// outside the pipeline: the unpromoted program a measurement runs.
func freshBaseline(t *testing.T, w workload.Workload) *ir.Program {
	t.Helper()
	compile := source.Compile
	if w.Lang == irimport.LangIR {
		compile = irimport.Compile
	}
	prog, err := compile(w.Src)
	if err != nil {
		t.Fatal(err)
	}
	if err := alias.Analyze(prog); err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			t.Fatal(err)
		}
	}
	return prog
}

// TestTrainingRunIsBaselineMeasurement: in the default profile mode the
// pipeline keeps its training run as Outcome.Before. That run must be
// exactly what a plain measurement of a fresh baseline gives (output,
// return value, final memory, opcode counts, steps), on both
// interpreter paths, with the profile held by Outcome.Profile alone.
func TestTrainingRunIsBaselineMeasurement(t *testing.T) {
	corpus := append(workload.Suite(), workload.ImportedSuite()...)
	corpus = append(corpus, workload.Corpus(3, 8)...)
	for _, legacy := range []bool{false, true} {
		for _, w := range corpus {
			iopts := interp.Options{Legacy: legacy}
			out, err := pipeline.Run(w.Src, pipeline.Options{Lang: w.Lang, Interp: iopts})
			if err != nil {
				t.Fatalf("%s (legacy %v): %v", w.Name, legacy, err)
			}
			if out.Profile == nil || out.Before.Profile != nil {
				t.Fatalf("%s (legacy %v): profile not moved from the training run to Outcome.Profile", w.Name, legacy)
			}
			want, err := interp.Run(freshBaseline(t, w), iopts)
			if err != nil {
				t.Fatalf("%s (legacy %v): %v", w.Name, legacy, err)
			}
			if !reflect.DeepEqual(out.Before, want) {
				t.Errorf("%s (legacy %v): Outcome.Before differs from a plain run of the baseline", w.Name, legacy)
			}
		}
	}
}

// TestMeasureBeforeTimings pins which profile modes run measure-before:
// never when the training run of the unpromoted program doubles as the
// baseline measurement or measurement is off, exactly once for the
// static estimate and for a separate training source.
func TestMeasureBeforeTimings(t *testing.T) {
	train := `
int x;
void main() {
	int i;
	for (i = 0; i < 10; i++) x++;
	print(x);
}
`
	for _, tc := range []struct {
		name string
		opts pipeline.Options
		want int
	}{
		{"default", pipeline.Options{}, 0},
		{"skip-measurement", pipeline.Options{SkipMeasurement: true}, 0},
		{"static-profile", pipeline.Options{StaticProfile: true}, 1},
		{"train-src", pipeline.Options{TrainSrc: train}, 1},
	} {
		out, err := pipeline.Run(simpleLoop, tc.opts)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		got := 0
		for _, tm := range out.Timings {
			if tm.Stage == pipeline.StageMeasureBefore {
				got++
			}
		}
		if got != tc.want {
			t.Errorf("%s: %d measure-before timings, want %d", tc.name, got, tc.want)
		}
		if (out.Before != nil) != !tc.opts.SkipMeasurement {
			t.Errorf("%s: Before present = %v with SkipMeasurement %v", tc.name, out.Before != nil, tc.opts.SkipMeasurement)
		}
	}
}
