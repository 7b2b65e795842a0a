package source_test

import (
	"testing"

	"repro/internal/ir"
	"repro/internal/source"
)

// FuzzParser feeds arbitrary text to the mini-C frontend. The contract
// is: never panic, any program the frontend accepts must produce
// structurally valid IR, and compiling the same source twice must
// print the same IR (pipeline.Run compiles every program twice and
// rolls a failed function back from the first compile). The seed corpus (testdata/fuzz/FuzzParser)
// carries the language's tricky shapes: address-taken locals, nested
// improper-ish loop exits via break/continue, call-heavy loops,
// structs, and pointer writes.
func FuzzParser(f *testing.F) {
	seeds := []string{
		`int x; void main() { x = 1; print(x); }`,
		`void main() { int a = 0; int* p = &a; *p = 7; print(a); }`,
		`int g; void h() { g++; } void main() { int i; for (i = 0; i < 9; i++) h(); print(g); }`,
		`struct P { int x; int y; }; struct P p; void main() { p.x = 1; p.y = p.x + 2; print(p.y); }`,
		`int a[4]; void main() { int i; for (i = 0; i < 4; i++) a[i] = i; print(a[3]); }`,
		`void main() { int i = 0; do { i++; if (i == 3) break; } while (i < 10); print(i); }`,
		`void main() { while } `,
		`int x void`,
		`}{`,
		``,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := source.Compile(src)
		if err != nil {
			return // rejecting bad input is fine; panicking is not
		}
		if prog == nil {
			t.Fatal("Compile returned nil program and nil error")
		}
		for _, fn := range prog.Funcs {
			if verr := fn.Verify(ir.VerifyCFG); verr != nil {
				t.Fatalf("accepted program has invalid IR: %v\nsource:\n%s", verr, src)
			}
		}
		again, err := source.Compile(src)
		if err != nil {
			t.Fatalf("second compile rejected an accepted program: %v\nsource:\n%s", err, src)
		}
		if a, b := prog.String(), again.String(); a != b {
			t.Fatalf("two compiles of one source differ:\n%s\nvs\n%s\nsource:\n%s", a, b, src)
		}
	})
}
