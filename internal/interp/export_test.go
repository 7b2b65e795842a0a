package interp

import "repro/internal/ir"

// CompileAll compiles every function of prog to bytecode, as the runs
// that call them do, so interp_test benchmarks can time compilation
// alone.
func CompileAll(prog *ir.Program) {
	m := &machine{prog: prog}
	m.layoutGlobals()
	for _, f := range prog.Funcs {
		compileBytecode(f, m.globalBase)
	}
}
