package interp_test

import (
	"testing"

	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// BenchmarkInterpPromoted runs the engine alone on the promoted suite
// and imported-suite programs, as the pipeline's measure-after run
// does; promotion happens once, before the timer starts, so neither the
// frontend nor the promoter shows in the figure. One iteration runs
// every program once, compile included. ns/step is the engine's cost
// per executed IR instruction.
func BenchmarkInterpPromoted(b *testing.B) {
	var progs []*ir.Program
	steps := int64(0)
	for _, w := range append(workload.Suite(), workload.ImportedSuite()...) {
		out, err := pipeline.Run(w.Src, pipeline.Options{Lang: w.Lang, Workers: 1})
		if err != nil {
			b.Fatalf("%s: %v", w.Name, err)
		}
		progs = append(progs, out.Prog)
		steps += out.After.Steps
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range progs {
			if _, err := interp.Run(p, interp.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*steps), "ns/step")
}
