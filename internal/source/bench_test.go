package source_test

import (
	"testing"

	"repro/internal/source"
	"repro/internal/workload"
)

// BenchmarkCompile measures the mini-C frontend (parse, check, lower)
// over the corpus of the pipeline package's BenchmarkRun: the first 32
// "large" generated programs of seed 1 under 7000 bytes, with loop
// bounds of at most 3. One iteration compiles every program once.
func BenchmarkCompile(b *testing.B) {
	var srcs []string
	for i := 0; len(srcs) < 32; i++ {
		cfg, err := workload.SizedGenConfig(workload.DeriveSeed(1, i), "large")
		if err != nil {
			b.Fatal(err)
		}
		cfg.LoopMax = 3
		if src := workload.Generate(cfg); len(src) < 7000 {
			srcs = append(srcs, src)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range srcs {
			if _, err := source.Compile(src); err != nil {
				b.Fatal(err)
			}
		}
	}
}
