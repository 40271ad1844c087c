package infer

import (
	"math"

	"repro/internal/ast"
	"repro/internal/types"
)

// expr types an expression, annotating every node.
func (inf *inferencer) expr(e ast.Expr, env *tenv) types.Type {
	switch x := e.(type) {
	case *ast.NumberLit:
		var t types.Type
		switch {
		case x.Imag:
			t = types.ScalarOf(types.ICplx, types.RangeTop)
		case x.IsInt:
			t = types.ScalarOf(types.IInt, types.Const(x.Value))
		default:
			t = types.ScalarOf(types.IReal, types.Const(x.Value))
		}
		return inf.annotate(e, t)

	case *ast.StringLit:
		n := len(x.Value)
		return inf.annotate(e, types.Exact(types.IStrg, 1, n, types.RangeTop))

	case *ast.Ident:
		if t, ok := env.get(x.Name); ok {
			return inf.annotate(e, t)
		}
		// Builtin constant or niladic call resolved by the
		// disambiguator; type it through the calculator.
		inf.res.RuleApplications++
		return inf.annotate(e, inf.calc.Forward(x.Name, nil))

	case *ast.Binary:
		l := inf.expr(x.L, env)
		r := inf.expr(x.R, env)
		if l.IsBottom() || r.IsBottom() {
			return inf.annotate(e, types.Bottom)
		}
		inf.res.RuleApplications++
		// Rules are called through function values, so a slice literal
		// would be a heap allocation per operator; no rule keeps its
		// arguments or re-enters expr.
		inf.binArgs = [2]types.Type{l, r}
		return inf.annotate(e, inf.calc.Forward(x.Op.String(), inf.binArgs[:]))

	case *ast.Unary:
		v := inf.expr(x.X, env)
		if v.IsBottom() {
			return inf.annotate(e, types.Bottom)
		}
		inf.res.RuleApplications++
		return inf.annotate(e, inf.calc.Forward("u"+x.Op.String(), []types.Type{v}))

	case *ast.Transpose:
		v := inf.expr(x.X, env)
		inf.res.RuleApplications++
		return inf.annotate(e, inf.calc.Forward("'", []types.Type{v}))

	case *ast.Range:
		lo := inf.expr(x.Lo, env)
		step := types.ScalarOf(types.IInt, types.Const(1))
		if x.Step != nil {
			step = inf.expr(x.Step, env)
		}
		hi := inf.expr(x.Hi, env)
		inf.res.RuleApplications++
		return inf.annotate(e, inf.calc.Forward(":", []types.Type{lo, step, hi}))

	case *ast.End:
		// Annotated by exprWithEnd before evaluation; fall back to a
		// generic positive integer.
		if t, ok := inf.res.Annots[e]; ok {
			return t
		}
		return inf.annotate(e, types.ScalarOf(types.IInt, types.MkRange(0, math.Inf(1))))

	case *ast.Colon:
		return types.Top

	case *ast.Call:
		ts := inf.callN(x, env, 1)
		if len(ts) == 0 {
			return inf.annotate(e, types.Top)
		}
		return inf.annotate(e, ts[0])

	case *ast.Matrix:
		return inf.annotate(e, inf.matrix(x, env))
	}
	return inf.annotate(e, types.Top)
}

// callN types a call expression with nout outputs, dispatching on the
// disambiguator's classification.
func (inf *inferencer) callN(x *ast.Call, env *tenv, nout int) []types.Type {
	switch x.Kind {
	case ast.CallIndex:
		base, ok := env.get(x.Name)
		if !ok {
			base = types.Top
		}
		subs := inf.subscripts(x, base, env)
		t := inf.annotate(x, indexReadType(base, subs, x.Args))
		inf.noteBase(x, base)
		return []types.Type{t}

	case ast.CallBuiltin:
		args := make([]types.Type, len(x.Args))
		for i, a := range x.Args {
			args[i] = inf.expr(a, env)
		}
		if anyBottom(args) {
			return []types.Type{inf.annotate(x, types.Bottom)}
		}
		inf.res.RuleApplications++
		var first types.Type
		if nout >= 2 {
			// Multi-output forms change the first output's meaning
			// ([r,c] = size(A) returns scalars, not the size vector).
			first = builtinFirstOutN(x.Name, args, inf.calc)
		} else {
			first = inf.calc.Forward(x.Name, args)
		}
		first = inf.sanitize(first)
		outs := make([]types.Type, nout)
		outs[0] = first
		for i := 1; i < nout; i++ {
			outs[i] = inf.sanitize(builtinExtraOut(x.Name, i, args))
		}
		inf.annotate(x, first)
		return outs

	case ast.CallUser:
		args := make([]types.Type, len(x.Args))
		for i, a := range x.Args {
			args[i] = inf.expr(a, env)
		}
		t := types.Top
		if anyBottom(args) {
			t = types.Bottom
		} else if inf.opts.UserFnType != nil {
			t = inf.opts.UserFnType(x.Name, args)
		}
		t = inf.sanitize(t)
		inf.annotate(x, t)
		outs := make([]types.Type, nout)
		outs[0] = t
		for i := 1; i < nout; i++ {
			outs[i] = types.Top
		}
		return outs
	}
	// Ambiguous/unresolved: evaluate args for annotations, result ⊤.
	for _, a := range x.Args {
		if _, isColon := a.(*ast.Colon); !isColon {
			inf.expr(a, env)
		}
	}
	inf.annotate(x, types.Top)
	return []types.Type{types.Top}
}

// anyBottom reports an operand that no execution reaches with a value:
// ⊥ is what Opts.UserFnType answers for a recursive call while the
// caller's own summary is still being solved for, and operators are
// strict in it (the rule database has no ⊥ rules and would answer ⊤).
func anyBottom(ts []types.Type) bool {
	for _, t := range ts {
		if t.IsBottom() {
			return true
		}
	}
	return false
}

// baseTypes records the base array type at each indexing site, keyed by
// the Call node; the code generator uses it for subscript-check removal.
func (inf *inferencer) noteBase(x *ast.Call, base types.Type) {
	if inf.res.Bases == nil {
		inf.res.Bases = make(map[*ast.Call]types.Type)
	}
	if old, ok := inf.res.Bases[x]; ok {
		base = types.Join(old, base)
	}
	inf.res.Bases[x] = inf.sanitize(base)
}

// builtinFirstOutN types the first output of a builtin called in a
// multi-output context.
func builtinFirstOutN(name string, args []types.Type, calc *Calculator) types.Type {
	switch name {
	case "size":
		// [r, c] = size(A): r is the row count.
		if len(args) == 1 {
			if r, _, ok := args[0].ExactShape(); ok {
				return types.ScalarOf(types.IInt, types.Const(float64(r)))
			}
			return types.ScalarOf(types.IInt, types.MkRange(0, math.Inf(1)))
		}
	case "max", "min", "sort", "lu", "find":
		return calc.Forward(name, args)
	}
	return types.Top
}

// builtinExtraOut types the second and later outputs of multi-output
// builtins (size, max, min, sort, lu).
func builtinExtraOut(name string, i int, args []types.Type) types.Type {
	switch name {
	case "size":
		return types.ScalarOf(types.IInt, types.MkRange(0, math.Inf(1)))
	case "max", "min":
		// index output
		return types.ScalarOf(types.IInt, types.MkRange(1, math.Inf(1)))
	case "sort":
		if len(args) == 1 {
			return types.Type{I: types.IInt, MinShape: args[0].MinShape, MaxShape: args[0].MaxShape, R: types.MkRange(1, math.Inf(1))}
		}
	case "lu":
		if len(args) == 1 {
			return types.Type{I: types.IReal, MinShape: args[0].MinShape, MaxShape: args[0].MaxShape, R: types.RangeTop}
		}
	}
	return types.Top
}

// indexReadType types A(subs...) reads.
func indexReadType(base types.Type, subs []types.Type, args []ast.Expr) types.Type {
	elemI := base.I
	r := base.R
	if elemI == types.IStrg {
		r = types.RangeTop
	}
	mk := func(minS, maxS types.Shape) types.Type {
		return types.Type{I: elemI, MinShape: minS, MaxShape: maxS, R: r}
	}
	subShape := func(i int) (types.Shape, types.Shape, bool) {
		if _, isColon := args[i].(*ast.Colon); isColon {
			return types.Shape{}, types.Shape{}, false
		}
		return subs[i].MinShape, subs[i].MaxShape, true
	}
	switch len(subs) {
	case 1:
		if minS, maxS, ok := subShape(0); ok {
			if subs[0].IsScalar() {
				return mk(types.ScalarShape, types.ScalarShape)
			}
			// The result takes the subscript's shape, except that a
			// vector subscript into a vector base takes the base's
			// orientation; stay conservative unless orientation is known.
			minN, okMin := minS.Numel()
			maxN, okMax := maxS.Numel()
			minE, maxE := types.Fin(0), types.InfExt
			if okMin {
				minE = types.Fin(minN)
			}
			if okMax {
				maxE = types.Fin(maxN)
			}
			switch {
			case !base.MaxShape.R.Inf && base.MaxShape.R.N <= 1:
				// base is a row vector → row result
				return mk(types.Shape{R: types.Fin(1), C: minE}, types.Shape{R: types.Fin(1), C: maxE})
			case !base.MaxShape.C.Inf && base.MaxShape.C.N <= 1:
				// base is a column vector → column result
				return mk(types.Shape{R: minE, C: types.Fin(1)}, types.Shape{R: maxE, C: types.Fin(1)})
			default:
				return mk(types.ShapeBot, types.Shape{R: maxE, C: maxE})
			}
		}
		// A(:) is numel x 1.
		minN, okMin := base.MinShape.Numel()
		maxN, okMax := base.MaxShape.Numel()
		minE, maxE := types.Fin(0), types.InfExt
		if okMin {
			minE = types.Fin(minN)
		}
		if okMax {
			maxE = types.Fin(maxN)
		}
		return mk(types.Shape{R: minE, C: types.Fin(1)}, types.Shape{R: maxE, C: types.Fin(1)})
	case 2:
		rowMin, rowMax := types.Fin(1), types.Fin(1)
		colMin, colMax := types.Fin(1), types.Fin(1)
		if minS, maxS, ok := subShape(0); ok {
			if !subs[0].IsScalar() {
				rn, rok := minS.Numel()
				xn, xok := maxS.Numel()
				rowMin, rowMax = types.Fin(0), types.InfExt
				if rok {
					rowMin = types.Fin(rn)
				}
				if xok {
					rowMax = types.Fin(xn)
				}
			}
		} else {
			rowMin, rowMax = base.MinShape.R, base.MaxShape.R
		}
		if minS, maxS, ok := subShape(1); ok {
			if !subs[1].IsScalar() {
				cn, cok := minS.Numel()
				xn, xok := maxS.Numel()
				colMin, colMax = types.Fin(0), types.InfExt
				if cok {
					colMin = types.Fin(cn)
				}
				if xok {
					colMax = types.Fin(xn)
				}
			}
		} else {
			colMin, colMax = base.MinShape.C, base.MaxShape.C
		}
		return mk(types.Shape{R: rowMin, C: colMin}, types.Shape{R: rowMax, C: colMax})
	}
	return types.Type{I: elemI, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: r}
}

// matrix types a bracket literal.
func (inf *inferencer) matrix(x *ast.Matrix, env *tenv) types.Type {
	if len(x.Rows) == 0 {
		return types.Exact(types.IReal, 0, 0, types.RangeBot)
	}
	i := types.IBottom
	r := types.RangeBot
	totRows, totRowsOK := 0, true
	var totCols int
	totColsOK := true
	firstRow := true
	for _, row := range x.Rows {
		rowRows, rowRowsOK := 0, true
		rowCols, rowColsOK := 0, true
		for _, elem := range row {
			t := inf.expr(elem, env)
			i = types.JoinI(i, t.I)
			r = types.JoinR(r, numericRange(t))
			if er, ec, ok := t.ExactShape(); ok {
				if rowRows == 0 {
					rowRows = er
				}
				if er != rowRows {
					rowRowsOK = false
				}
				rowCols += ec
			} else {
				rowRowsOK, rowColsOK = false, false
			}
		}
		if rowRowsOK {
			totRows += rowRows
		} else {
			totRowsOK = false
		}
		if rowColsOK {
			if firstRow {
				totCols = rowCols
			} else if totCols != rowCols {
				totColsOK = false
			}
		} else {
			totColsOK = false
		}
		firstRow = false
	}
	if i == types.IBottom {
		i = types.IReal
	}
	if totRowsOK && totColsOK {
		s := types.Shape{R: types.Fin(totRows), C: types.Fin(totCols)}
		return types.Type{I: i, MinShape: s, MaxShape: s, R: r}
	}
	return types.Type{I: i, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: r}
}
