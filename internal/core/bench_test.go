package core_test

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/profile"
	"repro/internal/source"
	"repro/internal/ssa"
	"repro/internal/workload"
)

// benchFunc is one SSA-built function with the static profile of its
// normalized CFG. Clone preserves block IDs, so the profile applies to
// every clone.
type benchFunc struct {
	f    *ir.Function
	prof *profile.FuncProfile
}

// benchFuncs compiles a large generated program, normalizes and
// SSA-builds its functions, and estimates their static profiles.
func benchFuncs(b *testing.B) []benchFunc {
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
	var out []benchFunc
	for _, f := range prog.Funcs {
		forest, err := cfg.Normalize(f)
		if err != nil {
			b.Fatalf("Normalize(%s): %v", f.Name, err)
		}
		prof := profile.Estimate(f, forest)
		if _, err := ssa.Build(f); err != nil {
			b.Fatalf("Build(%s): %v", f.Name, err)
		}
		out = append(out, benchFunc{f, prof})
	}
	return out
}

// BenchmarkPromoteFunction measures whole-program promotion, cleanup
// included. Promotion mutates the function, so each iteration works on
// fresh clones with their own interval forests; the clone and forest
// cost is included on both sides of any before/after comparison and the
// numbers remain comparable.
func BenchmarkPromoteFunction(b *testing.B) {
	funcs := benchFuncs(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, bf := range funcs {
			g := bf.f.Clone()
			config := core.Config{Profile: bf.prof, CountTailStores: true}
			if _, err := core.PromoteFunction(g, cfg.AnnotatedIntervals(g), config); err != nil {
				b.Fatalf("PromoteFunction(%s): %v", g.Name, err)
			}
		}
	}
}
