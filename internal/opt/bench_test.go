package opt_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// benchFuncs compiles the large generated program the core and ssa
// benchmarks use and returns its functions in SSA form, before any
// cleanup: copies from lowering and phis nothing reads are still there.
func benchFuncs(b *testing.B) []*ir.Function {
	b.Helper()
	gen, err := workload.SizedGenConfig(13, "large")
	if err != nil {
		b.Fatal(err)
	}
	prog, err := source.Compile(workload.Generate(gen))
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		b.Fatalf("Analyze: %v", err)
	}
	for _, f := range prog.Funcs {
		if _, err := cfg.Normalize(f); err != nil {
			b.Fatalf("Normalize(%s): %v", f.Name, err)
		}
		if _, err := ssa.Build(f); err != nil {
			b.Fatalf("Build(%s): %v", f.Name, err)
		}
	}
	return prog.Funcs
}

// BenchmarkCleanup measures the post-promotion sweep (copy propagation,
// DCE, trivial phi pruning to a fixpoint) over a whole program. Cleanup
// mutates the function, so each iteration works on fresh clones; the
// clone cost is included on both sides of any before/after comparison
// and the numbers remain comparable.
func BenchmarkCleanup(b *testing.B) {
	funcs := benchFuncs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, f := range funcs {
			opt.Cleanup(f.Clone())
		}
	}
}
