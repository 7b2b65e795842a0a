package source_test

import (
	"testing"

	"repro/internal/source"
	"repro/internal/workload"
)

// BenchmarkCompile measures the mini-C frontend over the corpus of the
// pipeline package's BenchmarkRun: the first 32 "large" generated
// programs of seed 1 under 7000 bytes, with loop bounds of at most 3.
// One iteration handles every program once. The sub-benchmarks time
// one layer each, so a frontend regression points to one: parse (text
// to AST), check (resolution and type checking, repeated on the same
// parsed files), lower (checked files to IR, repeated on the same
// checked files) and all (source.Compile, the three in a row).
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
	parseAll := func(b *testing.B) []*source.File {
		files := make([]*source.File, len(srcs))
		for i, src := range srcs {
			f, err := source.Parse(src)
			if err != nil {
				b.Fatal(err)
			}
			files[i] = f
		}
		return files
	}
	checkAll := func(b *testing.B, files []*source.File) []*source.Checked {
		checked := make([]*source.Checked, len(files))
		for i, f := range files {
			c, err := source.Check(f)
			if err != nil {
				b.Fatal(err)
			}
			checked[i] = c
		}
		return checked
	}
	b.Run("parse", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			parseAll(b)
		}
	})
	b.Run("check", func(b *testing.B) {
		files := parseAll(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			checkAll(b, files)
		}
	})
	b.Run("lower", func(b *testing.B) {
		checked := checkAll(b, parseAll(b))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, c := range checked {
				if _, err := source.Lower(c); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("all", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, src := range srcs {
				if _, err := source.Compile(src); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}
