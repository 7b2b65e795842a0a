package irimport_test

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/interp"
	"repro/internal/irimport"
	"repro/internal/pipeline"
)

// expectedRuns pins hand-computed observables for the corpus programs,
// so the importer's semantics are checked against the source text, not
// just for internal consistency. ebpf_hash is covered by the
// cross-path and promotion differentials only (its value is not
// comfortably hand-checkable).
var expectedRuns = map[string]struct {
	output []int64
	ret    int64
}{
	"straightline.ll":    {[]int64{49}, 49},
	"loop_sum.ll":        {[]int64{36}, 36},
	"branchy.ll":         {[]int64{104, 120}, 224},
	"global_counters.ll": {[]int64{2, 2}, 0},
	"ptr_swap.ll":        {[]int64{22, 11}, 11},
	"nested_loops.ll":    {[]int64{18, 4}, 4},
	"calls_i32.ll":       {[]int64{72}, 72},
	"struct_fields.ll":   {[]int64{25}, 25},
	"phi_swap.ll":        {[]int64{6765}, 6765},
	"phi_ptr_const.ll":   {[]int64{37, 135}, 172},
	"opaque_ptr.ll":      {[]int64{14}, 14},
}

// TestImportedSemantics runs every corpus program through the full
// promotion pipeline in paranoid mode and then executes the promoted
// program on both interpreter paths, holding everything to the
// unpromoted observables (and to the pinned expected values where we
// have them).
func TestImportedSemantics(t *testing.T) {
	for _, file := range corpusFiles(t) {
		t.Run(filepath.Base(file), func(t *testing.T) {
			src, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			out, err := pipeline.Run(string(src), pipeline.Options{
				Lang:      irimport.LangIR,
				Algorithm: pipeline.AlgSSA,
				Check:     pipeline.CheckParanoid,
				Interp:    interp.Options{MaxSteps: 10_000_000},
			})
			if err != nil {
				t.Fatalf("pipeline: %v", err)
			}
			for _, d := range out.Degraded {
				t.Errorf("degraded %s at %s: %v", d.Func, d.Stage, d.Err.Err)
			}
			if want, ok := expectedRuns[filepath.Base(file)]; ok {
				if !reflect.DeepEqual(out.Before.Output, want.output) || out.Before.ReturnValue != want.ret {
					t.Fatalf("unpromoted run: output %v return %d, want %v / %d",
						out.Before.Output, out.Before.ReturnValue, want.output, want.ret)
				}
			}
			base := out.Before
			for _, path := range []struct {
				name string
				opts interp.Options
			}{
				{"legacy", interp.Options{Legacy: true, MaxSteps: 10_000_000}},
				{"bytecode", interp.Options{MaxSteps: 10_000_000}},
			} {
				res, err := interp.Run(out.Prog, path.opts)
				if err != nil {
					t.Fatalf("%s run of promoted program: %v", path.name, err)
				}
				if !reflect.DeepEqual(res.Output, base.Output) || res.ReturnValue != base.ReturnValue {
					t.Errorf("%s path: output %v return %d, want %v / %d",
						path.name, res.Output, res.ReturnValue, base.Output, base.ReturnValue)
				}
				for name, img := range base.Globals {
					if !reflect.DeepEqual(res.Globals[name], img) {
						t.Errorf("%s path: final @%s = %v, want %v", path.name, name, res.Globals[name], img)
					}
				}
			}
		})
	}
}

// TestParseErrors pins the error positions and messages for
// representative rejections of the dialect.
func TestParseErrors(t *testing.T) {
	cases := []struct {
		name, src, want string
	}{
		{"unknown instruction",
			"define i64 @main() {\nentry:\n  %x = frobnicate i64 1\n  ret i64 %x\n}\n",
			"3:8: "},
		{"unsigned div",
			"define i64 @main() {\nentry:\n  %x = udiv i64 4, 2\n  ret i64 %x\n}\n",
			"unsigned udiv"},
		{"undefined register",
			"define i64 @main() {\nentry:\n  %x = add i64 %nope, 1\n  ret i64 %x\n}\n",
			"%nope is used but never defined"},
		{"missing terminator",
			"define i64 @main() {\nentry:\n  %x = add i64 1, 2\nnext:\n  ret i64 %x\n}\n",
			"not terminated"},
		{"branch to entry",
			"define i64 @main() {\nentry:\n  br label %entry\n}\n",
			"entry"},
		{"call arity",
			"define i64 @f(i64 %a) {\nentry:\n  ret i64 %a\n}\ndefine i64 @main() {\nentry:\n  %x = call i64 @f(i64 1, i64 2)\n  ret i64 %x\n}\n",
			"2 arguments, function takes 1"},
		{"undefined callee",
			"define i64 @main() {\nentry:\n  %x = call i64 @ghost(i64 1)\n  ret i64 %x\n}\n",
			"undefined function @ghost"},
		{"gep out of range",
			"@a = global [4 x i64] zeroinitializer\ndefine i64 @main() {\nentry:\n  %p = getelementptr [4 x i64], [4 x i64]* @a, i64 0, i64 9\n  %x = load i64, i64* %p\n  ret i64 %x\n}\n",
			"out of range"},
		{"whole array load",
			"@a = global [4 x i64] zeroinitializer\ndefine i64 @main() {\nentry:\n  %x = load i64, i64* @a\n  ret i64 %x\n}\n",
			"whole aggregate"},
		{"duplicate label",
			"define i64 @main() {\nentry:\n  br label %x\nx:\n  br label %x\nx:\n  ret i64 0\n}\n",
			"duplicate label"},
		{"void call result",
			"define void @f() {\nentry:\n  ret void\n}\ndefine i64 @main() {\nentry:\n  %x = call i64 @f()\n  ret i64 %x\n}\n",
			"@f returns void"},
		{"conflicting sibling phi destinations",
			"define i64 @main() {\nentry:\n  %t = icmp ne i64 1, 0\n  br i1 %t, label %a, label %b\na:\n  %v = phi i64 [ 1, %entry ]\n  ret i64 %v\nb:\n  %v = phi i64 [ 2, %entry ]\n  ret i64 %v\n}\n",
			"different value"},
		{"dynamic address phi operand",
			"@a = global [4 x i64] zeroinitializer\ndefine i64 @main() {\nentry:\n  %i = add i64 1, 1\n  br label %u\nu:\n  %p = phi i64* [ getelementptr ([4 x i64], [4 x i64]* @a, i64 0, i64 %i), %entry ]\n  %x = load i64, i64* %p\n  ret i64 %x\n}\n",
			"not a valid phi operand"},
		{"phi pred mismatch",
			"define i64 @main() {\nentry:\n  br label %a\na:\n  %v = phi i64 [ 1, %entry ], [ 2, %b ]\n  ret i64 %v\nb:\n  ret i64 0\n}\n",
			"predecessor"},
		{"float op",
			"define i64 @main() {\nentry:\n  %x = fadd double %x, %x\n  ret i64 0\n}\n",
			"outside the supported dialect"},
		{"float literal",
			"define i64 @main() {\nentry:\n  %x = fadd double 1.0, 2.0\n  ret i64 0\n}\n",
			"malformed number"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := irimport.Compile(tc.src)
			if err == nil {
				t.Fatalf("expected error containing %q, got none", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestSiblingPhiSharedDest pins the allowed side of the sibling-phi
// destination rule: phis in two successors of one predecessor may
// share a destination when they agree on the incoming value — the
// moves dedupe instead of erroring.
func TestSiblingPhiSharedDest(t *testing.T) {
	src := "define i64 @main() {\nentry:\n  %t = icmp ne i64 1, 0\n  br i1 %t, label %a, label %b\n" +
		"a:\n  %v = phi i64 [ 5, %entry ]\n  ret i64 %v\n" +
		"b:\n  %v = phi i64 [ 5, %entry ]\n  %w = add i64 %v, 1\n  ret i64 %w\n}\n"
	prog, err := irimport.Compile(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := interp.Run(prog, interp.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.ReturnValue != 5 {
		t.Fatalf("return %d, want 5", res.ReturnValue)
	}
}

// TestDetectLang pins the extension mapping and the unknown-format
// error.
func TestDetectLang(t *testing.T) {
	for file, want := range map[string]string{
		"prog.mc": "mc", "prog.c": "mc", "kernel.ll": "ll",
		"dir.ll/prog.MC": "mc", "x.LL": "ll",
	} {
		got, err := irimport.DetectLang(file)
		if err != nil || got != want {
			t.Errorf("DetectLang(%q) = %q, %v; want %q", file, got, err, want)
		}
	}
	if _, err := irimport.DetectLang("prog.wat"); err == nil || !strings.Contains(err.Error(), "-lang") {
		t.Errorf("DetectLang(prog.wat) = %v, want unknown-format error mentioning -lang", err)
	}
}
