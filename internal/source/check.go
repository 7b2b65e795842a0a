package source

import (
	"fmt"

	"repro/internal/ir"
)

// VarKind classifies resolved variables.
type VarKind uint8

// Variable kinds.
const (
	VarGlobal VarKind = iota
	VarLocal
	VarParam
)

// Symbol is a resolved variable. One Symbol exists per declaration; the
// checker stores it on the declaring node and on every node that names
// the variable, so the lowering pass never needs scope information.
type Symbol struct {
	Kind     VarKind
	Name     string
	Type     Type
	ArrayN   int
	Global   *GlobalDecl // when Kind == VarGlobal
	Decl     *DeclStmt   // when Kind == VarLocal
	ParamIdx int         // when Kind == VarParam
	// AddrTaken is set when &name occurs; address-taken locals are
	// lowered to stack slots instead of registers.
	AddrTaken bool

	// Lowering state, set by Lower at the declaration, which precedes
	// every use: the register of a register-resident local or
	// parameter (ir.NoReg otherwise), the slot of a memory-resident
	// local, the cell of a global.
	reg    ir.RegID
	slot   *ir.Slot
	global *ir.Global
}

// Checked is the result of type checking: the file, whose VarExpr,
// IndexExpr, FieldExpr, DeclStmt, GlobalDecl and Param nodes carry
// their symbols and whose CallExpr nodes carry their callees, plus the
// struct and function tables. Expression types are checked but not
// recorded: lowering needs only the symbols, which carry their own
// types.
type Checked struct {
	File    *File
	Structs map[string]*StructDef
	Funcs   map[string]*FuncDecl
}

type checker struct {
	c  *Checked
	fn *FuncDecl
	// locals is the stack of visible local and parameter symbols,
	// innermost last; marks holds where each open scope starts in it.
	// A function has few locals, so lookups scan it.
	locals  []*Symbol
	marks   []int
	globals map[string]*Symbol
	loops   int
}

// Check type-checks a parsed file and returns resolution annotations.
func Check(file *File) (*Checked, error) {
	c := &Checked{
		File:    file,
		Structs: make(map[string]*StructDef),
		Funcs:   make(map[string]*FuncDecl),
	}
	ck := &checker{c: c, globals: make(map[string]*Symbol)}

	for _, sd := range file.Structs {
		if _, dup := c.Structs[sd.Name]; dup {
			return nil, fmt.Errorf("%v: struct %s redefined", sd.Pos, sd.Name)
		}
		if len(sd.Fields) == 0 {
			return nil, fmt.Errorf("%v: struct %s has no fields", sd.Pos, sd.Name)
		}
		seen := map[string]bool{}
		for _, f := range sd.Fields {
			if seen[f] {
				return nil, fmt.Errorf("%v: struct %s: duplicate field %s", sd.Pos, sd.Name, f)
			}
			seen[f] = true
		}
		c.Structs[sd.Name] = sd
	}
	for _, g := range file.Globals {
		if g.Type.Kind == TypeStruct {
			sd, ok := c.Structs[g.Type.Struct.Name]
			if !ok {
				return nil, fmt.Errorf("%v: unknown struct %s", g.Pos, g.Type.Struct.Name)
			}
			g.Type.Struct = sd
		}
		if g.Type.Kind == TypeArray && g.ArrayN <= 0 {
			return nil, fmt.Errorf("%v: array %s has non-positive size", g.Pos, g.Name)
		}
		if _, dup := ck.globals[g.Name]; dup {
			return nil, fmt.Errorf("%v: global %s redefined", g.Pos, g.Name)
		}
		g.Sym = &Symbol{
			Kind: VarGlobal, Name: g.Name, Type: g.Type, ArrayN: g.ArrayN, Global: g,
		}
		ck.globals[g.Name] = g.Sym
	}
	for _, fn := range file.Funcs {
		if _, dup := c.Funcs[fn.Name]; dup {
			return nil, fmt.Errorf("%v: function %s redefined", fn.Pos, fn.Name)
		}
		if fn.Name == "print" {
			return nil, fmt.Errorf("%v: cannot define built-in print", fn.Pos)
		}
		c.Funcs[fn.Name] = fn
	}
	if _, ok := c.Funcs["main"]; !ok {
		return nil, fmt.Errorf("program has no main function")
	}

	for _, fn := range file.Funcs {
		if err := ck.checkFunc(fn); err != nil {
			return nil, err
		}
	}
	return c, nil
}

func (ck *checker) checkFunc(fn *FuncDecl) error {
	ck.fn = fn
	ck.locals, ck.marks = ck.locals[:0], append(ck.marks[:0], 0)
	ck.loops = 0
	for i := range fn.Params {
		p := &fn.Params[i]
		p.Sym = &Symbol{Kind: VarParam, Name: p.Name, Type: p.Type, ParamIdx: i}
		if err := ck.declare(p.Sym, p.Pos); err != nil {
			return err
		}
	}
	return ck.checkStmt(fn.Body)
}

func (ck *checker) pushScope() { ck.marks = append(ck.marks, len(ck.locals)) }

func (ck *checker) popScope() {
	ck.locals = ck.locals[:ck.marks[len(ck.marks)-1]]
	ck.marks = ck.marks[:len(ck.marks)-1]
}

func (ck *checker) declare(sym *Symbol, pos Pos) error {
	for _, s := range ck.locals[ck.marks[len(ck.marks)-1]:] {
		if s.Name == sym.Name {
			return fmt.Errorf("%v: %s redeclared in this scope", pos, sym.Name)
		}
	}
	ck.locals = append(ck.locals, sym)
	return nil
}

func (ck *checker) lookup(name string) *Symbol {
	for i := len(ck.locals) - 1; i >= 0; i-- {
		if s := ck.locals[i]; s.Name == name {
			return s
		}
	}
	return ck.globals[name]
}

func (ck *checker) checkStmt(s Stmt) error {
	switch s := s.(type) {
	case *BlockStmt:
		ck.pushScope()
		defer ck.popScope()
		for _, st := range s.Stmts {
			if err := ck.checkStmt(st); err != nil {
				return err
			}
		}
		return nil
	case *DeclStmt:
		if s.Type.Kind == TypeStruct {
			sd, ok := ck.c.Structs[s.Type.Struct.Name]
			if !ok {
				return fmt.Errorf("%v: unknown struct %s", s.Pos, s.Type.Struct.Name)
			}
			s.Type.Struct = sd
		}
		if s.Type.Kind == TypeArray && s.ArrayN <= 0 {
			return fmt.Errorf("%v: array %s has non-positive size", s.Pos, s.Name)
		}
		if s.Init != nil {
			ty, err := ck.checkExpr(s.Init)
			if err != nil {
				return err
			}
			if err := assignableExpr(s.Type, ty, s.Init, s.Pos); err != nil {
				return err
			}
		}
		s.Sym = &Symbol{Kind: VarLocal, Name: s.Name, Type: s.Type, ArrayN: s.ArrayN, Decl: s}
		return ck.declare(s.Sym, s.Pos)
	case *AssignStmt:
		lty, err := ck.checkLvalue(s.Lhs)
		if err != nil {
			return err
		}
		if s.Op == "++" || s.Op == "--" {
			if lty.Kind != TypeInt {
				return fmt.Errorf("%v: %s requires an int lvalue", s.Pos, s.Op)
			}
			return nil
		}
		rty, err := ck.checkExpr(s.Rhs)
		if err != nil {
			return err
		}
		if s.Op != "=" {
			if lty.Kind != TypeInt || rty.Kind != TypeInt {
				return fmt.Errorf("%v: %s requires int operands", s.Pos, s.Op)
			}
			return nil
		}
		return assignableExpr(lty, rty, s.Rhs, s.Pos)
	case *ExprStmt:
		_, err := ck.checkExpr(s.X)
		return err
	case *IfStmt:
		if err := ck.checkCond(s.Cond); err != nil {
			return err
		}
		if err := ck.checkStmt(s.Then); err != nil {
			return err
		}
		if s.Else != nil {
			return ck.checkStmt(s.Else)
		}
		return nil
	case *WhileStmt:
		if err := ck.checkCond(s.Cond); err != nil {
			return err
		}
		ck.loops++
		defer func() { ck.loops-- }()
		return ck.checkStmt(s.Body)
	case *DoWhileStmt:
		ck.loops++
		err := ck.checkStmt(s.Body)
		ck.loops--
		if err != nil {
			return err
		}
		return ck.checkCond(s.Cond)
	case *ForStmt:
		ck.pushScope()
		defer ck.popScope()
		if s.Init != nil {
			if err := ck.checkStmt(s.Init); err != nil {
				return err
			}
		}
		if s.Cond != nil {
			if err := ck.checkCond(s.Cond); err != nil {
				return err
			}
		}
		if s.Post != nil {
			if err := ck.checkStmt(s.Post); err != nil {
				return err
			}
		}
		ck.loops++
		defer func() { ck.loops-- }()
		return ck.checkStmt(s.Body)
	case *ReturnStmt:
		if ck.fn.Ret.Kind == TypeVoid {
			if s.X != nil {
				return fmt.Errorf("%v: void function %s returns a value", s.Pos, ck.fn.Name)
			}
			return nil
		}
		if s.X == nil {
			return fmt.Errorf("%v: function %s must return a value", s.Pos, ck.fn.Name)
		}
		ty, err := ck.checkExpr(s.X)
		if err != nil {
			return err
		}
		if ty.Kind != TypeInt {
			return fmt.Errorf("%v: return type mismatch in %s", s.Pos, ck.fn.Name)
		}
		return nil
	case *BreakStmt:
		if ck.loops == 0 {
			return fmt.Errorf("%v: break outside loop", s.Pos)
		}
		return nil
	case *ContinueStmt:
		if ck.loops == 0 {
			return fmt.Errorf("%v: continue outside loop", s.Pos)
		}
		return nil
	case *EmptyStmt:
		return nil
	}
	return fmt.Errorf("unhandled statement %T", s)
}

func (ck *checker) checkCond(e Expr) error {
	ty, err := ck.checkExpr(e)
	if err != nil {
		return err
	}
	if ty.Kind != TypeInt && ty.Kind != TypePtr {
		return fmt.Errorf("condition must be int or pointer, got %v", ty)
	}
	return nil
}

// isNullLiteral reports whether e is the literal 0, the only int
// expression convertible to a pointer. Keeping the int/pointer boundary
// this tight is what lets alias analysis enumerate every possible
// pointer target.
func isNullLiteral(e Expr) bool {
	n, ok := e.(*NumExpr)
	return ok && n.Val == 0
}

func assignableExpr(dst Type, src Type, srcExpr Expr, pos Pos) error {
	switch dst.Kind {
	case TypeInt:
		if src.Kind != TypeInt {
			return fmt.Errorf("%v: cannot assign %v to int", pos, src)
		}
	case TypePtr:
		if src.Kind == TypePtr {
			return nil
		}
		if src.Kind == TypeInt && srcExpr != nil && isNullLiteral(srcExpr) {
			return nil
		}
		return fmt.Errorf("%v: cannot assign %v to int* (only a pointer or literal 0)", pos, src)
	default:
		return fmt.Errorf("%v: cannot assign to %v", pos, dst)
	}
	return nil
}

// checkLvalue resolves an assignment target and returns its type.
func (ck *checker) checkLvalue(e Expr) (Type, error) {
	switch e := e.(type) {
	case *VarExpr:
		sym := ck.lookup(e.Name)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined variable %s", e.Pos, e.Name)
		}
		if sym.Type.Kind == TypeArray || sym.Type.Kind == TypeStruct {
			return Type{}, fmt.Errorf("%v: cannot assign to whole %v %s", e.Pos, sym.Type, e.Name)
		}
		e.Sym = sym
		return sym.Type, nil
	case *IndexExpr, *FieldExpr:
		return ck.checkExpr(e)
	case *UnaryExpr:
		if e.Op != "*" {
			return Type{}, fmt.Errorf("%v: expression is not an lvalue", e.Pos)
		}
		ty, err := ck.checkExpr(e.X)
		if err != nil {
			return Type{}, err
		}
		if ty.Kind != TypePtr {
			return Type{}, fmt.Errorf("%v: cannot dereference %v", e.Pos, ty)
		}
		return Type{Kind: TypeInt}, nil
	}
	return Type{}, fmt.Errorf("expression is not an lvalue")
}

func (ck *checker) checkExpr(e Expr) (Type, error) {
	switch e := e.(type) {
	case *NumExpr:
		return Type{Kind: TypeInt}, nil
	case *VarExpr:
		sym := ck.lookup(e.Name)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined variable %s", e.Pos, e.Name)
		}
		if sym.Type.Kind == TypeArray {
			return Type{}, fmt.Errorf("%v: array %s used without index (no decay)", e.Pos, e.Name)
		}
		if sym.Type.Kind == TypeStruct {
			return Type{}, fmt.Errorf("%v: struct %s used without field access", e.Pos, e.Name)
		}
		e.Sym = sym
		return sym.Type, nil
	case *IndexExpr:
		sym := ck.lookup(e.Arr)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined array %s", e.Pos, e.Arr)
		}
		if sym.Type.Kind != TypeArray {
			return Type{}, fmt.Errorf("%v: %s is not an array", e.Pos, e.Arr)
		}
		ity, err := ck.checkExpr(e.Idx)
		if err != nil {
			return Type{}, err
		}
		if ity.Kind != TypeInt {
			return Type{}, fmt.Errorf("%v: array index must be int", e.Pos)
		}
		e.Sym = sym
		return Type{Kind: TypeInt}, nil
	case *FieldExpr:
		sym := ck.lookup(e.Rec)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined variable %s", e.Pos, e.Rec)
		}
		if sym.Type.Kind != TypeStruct {
			return Type{}, fmt.Errorf("%v: %s is not a struct", e.Pos, e.Rec)
		}
		if sym.Type.Struct.FieldIndex(e.Field) < 0 {
			return Type{}, fmt.Errorf("%v: struct %s has no field %s", e.Pos, sym.Type.Struct.Name, e.Field)
		}
		e.Sym = sym
		return Type{Kind: TypeInt}, nil
	case *UnaryExpr:
		switch e.Op {
		case "&":
			return ck.checkAddrOf(e)
		case "*":
			ty, err := ck.checkExpr(e.X)
			if err != nil {
				return Type{}, err
			}
			if ty.Kind != TypePtr {
				return Type{}, fmt.Errorf("%v: cannot dereference %v", e.Pos, ty)
			}
			return Type{Kind: TypeInt}, nil
		default: // - ! ~
			ty, err := ck.checkExpr(e.X)
			if err != nil {
				return Type{}, err
			}
			if ty.Kind != TypeInt {
				return Type{}, fmt.Errorf("%v: unary %s requires int", e.Pos, e.Op)
			}
			return Type{Kind: TypeInt}, nil
		}
	case *BinExpr:
		xty, err := ck.checkExpr(e.X)
		if err != nil {
			return Type{}, err
		}
		yty, err := ck.checkExpr(e.Y)
		if err != nil {
			return Type{}, err
		}
		switch e.Op {
		case "==", "!=":
			if xty.Kind != yty.Kind && !(xty.Kind == TypePtr && yty.Kind == TypeInt) &&
				!(xty.Kind == TypeInt && yty.Kind == TypePtr) {
				return Type{}, fmt.Errorf("%v: mismatched comparison %v %s %v", e.Pos, xty, e.Op, yty)
			}
			return Type{Kind: TypeInt}, nil
		case "&&", "||":
			ok := func(t Type) bool { return t.Kind == TypeInt || t.Kind == TypePtr }
			if !ok(xty) || !ok(yty) {
				return Type{}, fmt.Errorf("%v: %s requires scalar operands", e.Pos, e.Op)
			}
			return Type{Kind: TypeInt}, nil
		default:
			if xty.Kind != TypeInt || yty.Kind != TypeInt {
				return Type{}, fmt.Errorf("%v: %s requires int operands", e.Pos, e.Op)
			}
			return Type{Kind: TypeInt}, nil
		}
	case *CallExpr:
		if e.Fn == "print" {
			if len(e.Args) != 1 {
				return Type{}, fmt.Errorf("%v: print takes exactly one argument", e.Pos)
			}
			ty, err := ck.checkExpr(e.Args[0])
			if err != nil {
				return Type{}, err
			}
			if ty.Kind != TypeInt {
				return Type{}, fmt.Errorf("%v: print requires an int", e.Pos)
			}
			return Type{Kind: TypeVoid}, nil
		}
		fn, ok := ck.c.Funcs[e.Fn]
		if !ok {
			return Type{}, fmt.Errorf("%v: call to undefined function %s", e.Pos, e.Fn)
		}
		if len(e.Args) != len(fn.Params) {
			return Type{}, fmt.Errorf("%v: %s expects %d arguments, got %d",
				e.Pos, e.Fn, len(fn.Params), len(e.Args))
		}
		for i, a := range e.Args {
			ty, err := ck.checkExpr(a)
			if err != nil {
				return Type{}, err
			}
			want := fn.Params[i].Type
			if err := assignableExpr(want, ty, a, e.Pos); err != nil {
				return Type{}, fmt.Errorf("%v: argument %d of %s: cannot pass %v as %v",
					e.Pos, i+1, e.Fn, ty, want)
			}
		}
		e.Decl = fn
		return fn.Ret, nil
	}
	return Type{}, fmt.Errorf("unhandled expression %T", e)
}

// checkAddrOf handles &x: the operand must be a scalar variable or a
// struct field, never an array element or parameter (the model keeps
// pointer targets enumerable for alias analysis).
func (ck *checker) checkAddrOf(e *UnaryExpr) (Type, error) {
	switch x := e.X.(type) {
	case *VarExpr:
		sym := ck.lookup(x.Name)
		if sym == nil {
			return Type{}, fmt.Errorf("%v: undefined variable %s", x.Pos, x.Name)
		}
		if sym.Type.Kind != TypeInt {
			return Type{}, fmt.Errorf("%v: & requires an int scalar, got %v", e.Pos, sym.Type)
		}
		if sym.Kind == VarParam {
			return Type{}, fmt.Errorf("%v: taking the address of parameter %s is not supported", e.Pos, x.Name)
		}
		x.Sym = sym
		ck.markAddrTaken(sym)
		return Type{Kind: TypePtr}, nil
	case *FieldExpr:
		if _, err := ck.checkExpr(x); err != nil {
			return Type{}, err
		}
		ck.markAddrTaken(x.Sym)
		return Type{Kind: TypePtr}, nil
	}
	return Type{}, fmt.Errorf("%v: & requires a scalar variable or struct field", e.Pos)
}

func (ck *checker) markAddrTaken(sym *Symbol) {
	sym.AddrTaken = true
	switch sym.Kind {
	case VarGlobal:
		sym.Global.AddrTaken = true
	case VarLocal:
		sym.Decl.AddrTaken = true
	}
}
