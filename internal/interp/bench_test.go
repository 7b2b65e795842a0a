package interp

import (
	"testing"

	"repro/internal/alias"
	"repro/internal/ir"
	"repro/internal/source"
)

// callHeavySrc exercises the per-call costs: frame setup (registers
// and slots), argument passing, and profile accounting across many
// short activations.
const callHeavySrc = `
int depth;
int leaf(int a, int b) {
	int t[4];
	t[0] = a; t[1] = b; t[2] = a + b; t[3] = a - b;
	return t[0] + t[1] * t[2] - t[3];
}
int mid(int n) {
	int acc;
	int i;
	for (i = 0; i < 8; i++) {
		acc = acc + leaf(i, n);
	}
	return acc;
}
void main() {
	int i;
	int sum;
	for (i = 0; i < 2000; i++) {
		sum = sum + mid(i);
	}
	print(sum);
}`

func benchProgram(b *testing.B) *ir.Program {
	b.Helper()
	prog, err := source.Compile(callHeavySrc)
	if err != nil {
		b.Fatalf("Compile: %v", err)
	}
	if err := alias.Analyze(prog); err != nil {
		b.Fatalf("Analyze: %v", err)
	}
	return prog
}

func benchRun(b *testing.B, opts Options) {
	b.Helper()
	prog := benchProgram(b)
	opts.CollectProfile = true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Run(prog, opts); err != nil {
			b.Fatalf("Run: %v", err)
		}
	}
}

// BenchmarkInterpCallHeavy runs the bytecode engine. Every run compiles
// each function it calls once, as every pipeline run does.
func BenchmarkInterpCallHeavy(b *testing.B) { benchRun(b, Options{}) }

// BenchmarkInterpCallHeavyLegacy runs the reference interpreter.
func BenchmarkInterpCallHeavyLegacy(b *testing.B) { benchRun(b, Options{Legacy: true}) }
