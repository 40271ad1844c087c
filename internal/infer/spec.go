package infer

import (
	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/types"
)

// Speculate implements MaJIC's type speculator (paper §2.5): with no
// knowledge of the calling context it guesses the likely parameter
// types by back-propagating type hints from the function body — the
// backward mode of the type calculator. Speculative inference
// alternates backward (hint collection) and forward (body re-typing)
// passes until the guessed signature converges.
//
// The hint rules are the paper's list:
//   - operands of the colon operator are almost always integer scalars;
//   - operands of relational operators (and if/while conditions) are
//     real scalars;
//   - if one argument of a bracket [x1 x2 ...] is provably scalar, the
//     others probably are too;
//   - non-colon subscripts in A(idx) / A(i,j) are likely scalars
//     (Fortran-77-style indexing);
//   - arguments of zeros/ones/rand/eye/randn (and the second argument
//     of size) are likely integer scalars.
//
// Parameters that attract no hints stay ⊤: the generated code falls
// back to generic boxed operations for them — safe for any invocation,
// but slower, which is exactly the speculation-failure mode Table 2 of
// the paper quantifies (qmr, mei).
func Speculate(fn *ast.Function, g *cfg.Graph, opts Opts) types.Signature {
	guesses := make(map[string]types.Type, len(fn.Ins))
	for _, p := range fn.Ins {
		guesses[p] = types.Top
	}
	const maxPasses = 3
	for pass := 0; pass < maxPasses; pass++ {
		// Forward pass with the current guesses: produces the body
		// annotations the bracket rule needs.
		params := make(map[string]types.Type, len(guesses))
		for k, v := range guesses {
			params[k] = v
		}
		res := Forward(g, params, opts)

		// Backward pass: collect hints.
		h := &hinter{res: res, hints: map[string]types.Type{}}
		for _, p := range fn.Ins {
			h.params = append(h.params, p)
		}
		h.collectStmts(fn.Body)

		changed := false
		for _, p := range fn.Ins {
			nt, ok := h.hints[p]
			if !ok {
				continue
			}
			if guesses[p] != nt {
				guesses[p] = nt
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	sig := make(types.Signature, len(fn.Ins))
	for i, p := range fn.Ins {
		sig[i] = guesses[p]
	}
	return sig
}

// hinter walks the body applying backward rules.
type hinter struct {
	res    *Result
	params []string
	hints  map[string]types.Type
}

func (h *hinter) isParam(name string) bool {
	for _, p := range h.params {
		if p == name {
			return true
		}
	}
	return false
}

var (
	intScalarGuess  = types.ScalarOf(types.IInt, types.RangeTop)
	realScalarGuess = types.ScalarOf(types.IReal, types.RangeTop)
)

// constrain back-propagates a guessed type onto an expression: this is
// the calculator's backward mode. Guesses flow through identifiers and
// simple arithmetic (whose operands share the scalar/intrinsic nature
// of the result).
func (h *hinter) constrain(e ast.Expr, guess types.Type, depth int) {
	if depth > 4 {
		return
	}
	switch x := e.(type) {
	case *ast.Ident:
		if !h.isParam(x.Name) {
			return
		}
		if old, ok := h.hints[x.Name]; ok {
			h.hints[x.Name] = types.Join(old, guess)
		} else {
			h.hints[x.Name] = guess
		}
	case *ast.Binary:
		switch x.Op {
		case ast.OpAdd, ast.OpSub, ast.OpMul, ast.OpEMul:
			h.constrain(x.L, guess, depth+1)
			h.constrain(x.R, guess, depth+1)
		case ast.OpDiv, ast.OpEDiv:
			g := guess
			g.I = types.JoinI(g.I, types.IReal)
			h.constrain(x.L, g, depth+1)
			h.constrain(x.R, g, depth+1)
		}
	case *ast.Unary:
		if x.Op == ast.OpNeg || x.Op == ast.OpPos {
			h.constrain(x.X, guess, depth+1)
		}
	}
}

func (h *hinter) collectStmts(stmts []ast.Stmt) {
	for _, s := range stmts {
		switch x := s.(type) {
		case *ast.ExprStmt:
			h.collectExpr(x.X)
		case *ast.Assign:
			for _, l := range x.LHS {
				if call, ok := l.(*ast.Call); ok {
					h.subscriptHints(call)
					// A store through scalar (F77-style) subscripts almost
					// always stores a real scalar element.
					if allScalarSubs(call) {
						h.constrain(x.RHS, realScalarGuess, 0)
					}
				}
			}
			h.collectExpr(x.RHS)
		case *ast.If:
			for i, c := range x.Conds {
				// Condition of an if: relational-operand rule applies to
				// the condition as a whole ("holds even stronger").
				h.constrain(c, realScalarGuess, 0)
				h.collectExpr(c)
				h.collectStmts(x.Blocks[i])
			}
			h.collectStmts(x.Else)
		case *ast.While:
			h.constrain(x.Cond, realScalarGuess, 0)
			h.collectExpr(x.Cond)
			h.collectStmts(x.Body)
		case *ast.For:
			h.collectExpr(x.Iter)
			h.collectStmts(x.Body)
		}
	}
}

// builtins whose arguments are likely integer scalars.
var intArgBuiltins = map[string]bool{
	"zeros": true, "ones": true, "rand": true, "randn": true, "eye": true,
	"linspace": false, // only the third argument; handled specially
}

func (h *hinter) collectExpr(e ast.Expr) {
	ast.Walk(e, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Range:
			// colon operand rule
			h.constrain(x.Lo, intScalarGuess, 0)
			if x.Step != nil {
				h.constrain(x.Step, intScalarGuess, 0)
			}
			h.constrain(x.Hi, intScalarGuess, 0)
		case *ast.Binary:
			if x.Op.IsRelational() {
				// relational-operand rule (imaginary parts disregarded,
				// vector comparisons rare)
				h.constrain(x.L, realScalarGuess, 0)
				h.constrain(x.R, realScalarGuess, 0)
			}
		case *ast.Call:
			switch x.Kind {
			case ast.Variable:
				h.subscriptHints(x)
			case ast.Builtin:
				if intArgBuiltins[x.Name] {
					for _, a := range x.Args {
						h.constrain(a, intScalarGuess, 0)
					}
				}
				if x.Name == "size" && len(x.Args) == 2 {
					h.constrain(x.Args[1], intScalarGuess, 0)
				}
				if x.Name == "linspace" && len(x.Args) == 3 {
					h.constrain(x.Args[2], intScalarGuess, 0)
				}
			}
		case *ast.Matrix:
			// bracket rule: if one element is provably scalar, the
			// others probably are too.
			anyScalarElem := false
			for _, row := range x.Rows {
				for _, elem := range row {
					if h.res.TypeOf(elem).IsScalar() {
						anyScalarElem = true
					}
				}
			}
			if anyScalarElem {
				for _, row := range x.Rows {
					for _, elem := range row {
						h.constrain(elem, realScalarGuess, 0)
					}
				}
			}
		}
		return true
	})
}

// allScalarSubs reports whether every subscript is a plain expression
// (no colon, no range) — F77-style indexing.
func allScalarSubs(call *ast.Call) bool {
	if len(call.Args) == 0 {
		return false
	}
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Colon, *ast.Range:
			return false
		}
	}
	return true
}

// subscriptHints applies the F77-style indexing rule: a subscript that
// is a plain expression or variable (not a colon and not a range) is
// likely an integer scalar — and the indexed array itself is likely a
// plain real matrix (programs that index elementwise in Fortran-77
// style almost always hold real numeric data there).
func (h *hinter) subscriptHints(call *ast.Call) {
	allF77 := len(call.Args) > 0
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Colon, *ast.Range:
			// F90-style indexing: no scalar hint.
			allF77 = false
		default:
			h.constrain(a, intScalarGuess, 0)
		}
	}
	if allF77 && h.isParam(call.Name) {
		base := types.MatrixOf(types.IReal)
		if old, ok := h.hints[call.Name]; ok {
			base = types.Join(old, base)
		}
		h.hints[call.Name] = base
	}
}
