package source_test

import (
	"fmt"
	"testing"

	"repro/internal/source"
	"repro/internal/workload"
)

// TestCheckStoresSymbolsOnNodes checks that after Check every node
// that names a variable carries the symbol it resolves to — VarExpr,
// IndexExpr, FieldExpr, DeclStmt, every global and every parameter —
// and every call of a defined function carries its callee, over the
// suite and 32 generated programs. Lowering reads resolution only from
// these fields.
func TestCheckStoresSymbolsOnNodes(t *testing.T) {
	srcs := map[string]string{}
	for _, w := range workload.Suite() {
		srcs[w.Name] = w.Src
	}
	for i, w := range workload.Corpus(1, 32) {
		if w.Lang == "" {
			srcs[fmt.Sprintf("gen-%d", i)] = w.Src
		}
	}
	nodes := 0
	for name, src := range srcs {
		file, err := source.Parse(src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if _, err := source.Check(file); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, g := range file.Globals {
			if g.Sym == nil || g.Sym.Global != g {
				t.Errorf("%s: global %s has no symbol", name, g.Name)
			}
		}
		for _, fn := range file.Funcs {
			for i, p := range fn.Params {
				if p.Sym == nil || p.Sym.Kind != source.VarParam || p.Sym.ParamIdx != i {
					t.Errorf("%s: %s parameter %s has no symbol", name, fn.Name, p.Name)
				}
			}
		}
		source.Inspect(file, func(n any) {
			var sym *source.Symbol
			var spelled string
			switch n := n.(type) {
			case *source.VarExpr:
				sym, spelled = n.Sym, n.Name
			case *source.IndexExpr:
				sym, spelled = n.Sym, n.Arr
			case *source.FieldExpr:
				sym, spelled = n.Sym, n.Rec
			case *source.DeclStmt:
				sym, spelled = n.Sym, n.Name
				if sym != nil && sym.Decl != n {
					t.Errorf("%s: declaration of %s carries another declaration's symbol", name, n.Name)
				}
			case *source.CallExpr:
				if (n.Decl == nil) != (n.Fn == "print") || (n.Decl != nil && n.Decl.Name != n.Fn) {
					t.Errorf("%s: call of %s carries callee %v", name, n.Fn, n.Decl)
				}
				return
			default:
				return
			}
			nodes++
			if sym == nil || sym.Name != spelled {
				t.Errorf("%s: %T naming %s carries symbol %v", name, n, spelled, sym)
			}
		})
	}
	if nodes < 1000 {
		t.Fatalf("vacuous: %d naming nodes", nodes)
	}
	t.Logf("%d naming nodes over %d programs", nodes, len(srcs))
}
