package pipeline_test

import (
	"testing"

	"repro/internal/pipeline"
	"repro/internal/workload"
)

// benchPrograms is the size of BenchmarkRun's corpus.
const benchPrograms = 32

// largePrograms returns the first n "large" generated programs of seed
// 1 whose source is under 7000 bytes, with loop bounds of at most 3;
// compile time grows steeply with size, and the cap keeps one outlier
// from dominating the total.
func largePrograms(b *testing.B, n int) []string {
	b.Helper()
	var srcs []string
	for i := 0; len(srcs) < n; i++ {
		cfg, err := workload.SizedGenConfig(workload.DeriveSeed(1, i), "large")
		if err != nil {
			b.Fatal(err)
		}
		cfg.LoopMax = 3
		if src := workload.Generate(cfg); len(src) < 7000 {
			srcs = append(srcs, src)
		}
	}
	return srcs
}

// BenchmarkRun measures the promote-only pipeline (static profile, no
// measurement runs) over a corpus of large generated
// programs; one iteration compiles every program once.
func BenchmarkRun(b *testing.B) {
	srcs := largePrograms(b, benchPrograms)
	opts := pipeline.Options{StaticProfile: true, SkipMeasurement: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := pipeline.Run(src, opts); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkRunMeasured measures the default pipeline (training run,
// measurement runs) over the suite and the imported suite;
// one iteration compiles and measures every program once.
func BenchmarkRunMeasured(b *testing.B) {
	suite := append(workload.Suite(), workload.ImportedSuite()...)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, w := range suite {
			if _, err := pipeline.Run(w.Src, pipeline.Options{Lang: w.Lang}); err != nil {
				b.Fatal(err)
			}
		}
	}
}
