package codegen

import (
	"repro/internal/ast"
	"repro/internal/types"
)

// A C register holds a complex128 and no kind tag, and OpBoxC demotes a
// zero imaginary part to a real value. That is what the interpreter does
// to the result of arithmetic and of the elementary math functions, and
// to nothing else: an element read of a complex array (mat.IndexScalar),
// a parameter, a call's result or a negation of one of these keeps the
// Complex kind with any imaginary part. So a complex value lives in a C
// register only when a demoting operation made it, or when nothing boxes
// it unchanged (the C-register kind invariant, DESIGN §19).

// kindCarriers names the variables that keep a V home although their type
// is a complex scalar: those that may hold a value no demoting operation
// made and have a use that may box it unchanged — anything but an operand
// of arithmetic or the argument of abs, real, imag or an elementary math
// function. An output's use is its return.
func (g *gen) kindCarriers(fn *ast.Function) map[string]bool {
	raw := map[string]bool{}
	for _, p := range fn.Ins {
		raw[p] = true
	}
	for changed := true; changed; {
		changed = false
		def := func(name string, carries bool) {
			if carries && !raw[name] {
				raw[name], changed = true, true
			}
		}
		ast.WalkStmts(fn.Body, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Assign:
				for _, l := range x.LHS {
					if id, ok := l.(*ast.Ident); ok {
						def(id.Name, len(x.LHS) > 1 || g.carries(x.RHS, raw))
					}
				}
			case *ast.For:
				_, isRange := x.Iter.(*ast.Range)
				def(x.Var, !isRange)
			case *ast.ExprStmt:
				def("ans", g.carries(x.X, raw))
			}
			return true
		})
	}

	boxed := map[string]bool{}
	for _, o := range fn.Outs {
		boxed[o] = true
	}
	demoted := make([]bool, len(g.res.Annots)) // by ast.Expr.ID: uses that are demoting operands, and definitions
	ast.WalkStmts(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			for _, l := range x.LHS {
				if id, ok := l.(*ast.Ident); ok {
					demoted[id.ID()] = true
				}
			}
		case *ast.Binary:
			for _, e := range []ast.Expr{x.L, x.R} {
				if id, ok := e.(*ast.Ident); ok {
					demoted[id.ID()] = true
				}
			}
		case *ast.Call:
			if x.Kind == ast.Builtin && demotes(x.Name) && len(x.Args) == 1 {
				if id, ok := x.Args[0].(*ast.Ident); ok {
					demoted[id.ID()] = true
				}
			}
		case *ast.Ident:
			if !demoted[x.ID()] && g.isVarUse(x) {
				boxed[x.Name] = true
			}
		}
		return true
	})

	for name := range raw {
		if !boxed[name] {
			delete(raw, name)
		}
	}
	return raw
}

// carries reports whether e's value may be complex without a demoting
// operation having made it, given the variables that may hold such values.
func (g *gen) carries(e ast.Expr, raw map[string]bool) bool {
	if types.LeqI(g.annOf(e).I, types.IReal) {
		return false
	}
	switch x := e.(type) {
	case *ast.NumberLit:
		return x.Imag && x.Value == 0
	case *ast.Binary:
		return false
	case *ast.Unary:
		return x.Op != ast.OpNot && g.carries(x.X, raw)
	case *ast.Transpose:
		return g.carries(x.X, raw)
	case *ast.Ident:
		if g.isVarUse(x) {
			return raw[x.Name]
		}
		return x.Name != "i" && x.Name != "j"
	case *ast.Call:
		return x.Kind != ast.Builtin || !demotes(x.Name)
	}
	return true
}

// demotes reports whether a builtin, applied to a complex scalar in a C
// register, gives the interpreter's answer whatever the argument's kind:
// its result is real, or demoted like arithmetic's.
func demotes(name string) bool {
	return name == "abs" || name == "real" || name == "imag" || cmathSupported(name)
}
