package source

// Inspect calls visit on every statement and expression of file's
// function bodies, each node before its children. It is the tests'
// AST walk.
func Inspect(file *File, visit func(node any)) {
	for _, fn := range file.Funcs {
		inspectStmt(fn.Body, visit)
	}
}

func inspectStmt(s Stmt, visit func(node any)) {
	if s == nil {
		return
	}
	visit(s)
	switch s := s.(type) {
	case *BlockStmt:
		for _, st := range s.Stmts {
			inspectStmt(st, visit)
		}
	case *DeclStmt:
		inspectExpr(s.Init, visit)
	case *AssignStmt:
		inspectExpr(s.Lhs, visit)
		inspectExpr(s.Rhs, visit)
	case *ExprStmt:
		inspectExpr(s.X, visit)
	case *IfStmt:
		inspectExpr(s.Cond, visit)
		inspectStmt(s.Then, visit)
		inspectStmt(s.Else, visit)
	case *WhileStmt:
		inspectExpr(s.Cond, visit)
		inspectStmt(s.Body, visit)
	case *DoWhileStmt:
		inspectStmt(s.Body, visit)
		inspectExpr(s.Cond, visit)
	case *ForStmt:
		inspectStmt(s.Init, visit)
		inspectExpr(s.Cond, visit)
		inspectStmt(s.Post, visit)
		inspectStmt(s.Body, visit)
	case *ReturnStmt:
		inspectExpr(s.X, visit)
	}
}

func inspectExpr(e Expr, visit func(node any)) {
	if e == nil {
		return
	}
	visit(e)
	switch e := e.(type) {
	case *IndexExpr:
		inspectExpr(e.Idx, visit)
	case *UnaryExpr:
		inspectExpr(e.X, visit)
	case *BinExpr:
		inspectExpr(e.X, visit)
		inspectExpr(e.Y, visit)
	case *CallExpr:
		for _, a := range e.Args {
			inspectExpr(a, visit)
		}
	}
}

// DeclStmts returns every local declaration of file in source order.
func DeclStmts(file *File) []*DeclStmt {
	var out []*DeclStmt
	Inspect(file, func(n any) {
		if d, ok := n.(*DeclStmt); ok {
			out = append(out, d)
		}
	})
	return out
}
