package interp

import (
	"fmt"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/mat"
)

// eval evaluates an expression to a single value.
func (in *Interp) eval(e ast.Expr, env *Env) (*mat.Value, error) {
	return in.evalCtx(e, env, nil)
}

func (in *Interp) evalCtx(e ast.Expr, env *Env, ctx *evalCtx) (*mat.Value, error) {
	switch x := e.(type) {
	case *ast.NumberLit:
		if x.Imag {
			return mat.ComplexScalar(complex(0, x.Value)), nil
		}
		if x.IsInt {
			return mat.IntScalar(x.Value), nil
		}
		return mat.Scalar(x.Value), nil

	case *ast.StringLit:
		return mat.FromString(x.Value), nil

	case *ast.Ident:
		if v, ok := env.Lookup(x.Name); ok {
			return v, nil
		}
		// Not a variable: builtin constant/function, then user function.
		if b := builtins.Lookup(x.Name); b != nil {
			vals, err := builtins.Call(in.host.Context(), b, nil, 1)
			if err != nil {
				return nil, err
			}
			return vals[0], nil
		}
		if in.host.LookupFunction(x.Name) != nil {
			vals, err := in.host.CallFunction(x.Name, nil, 1)
			if err != nil {
				return nil, err
			}
			if len(vals) == 0 {
				return nil, fmt.Errorf("%s: function returned no value", x.Name)
			}
			return vals[0], nil
		}
		return nil, fmt.Errorf("undefined function or variable %q", x.Name)

	case *ast.Binary:
		return in.evalBinary(x, env, ctx)

	case *ast.Unary:
		v, err := in.evalCtx(x.X, env, ctx)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case ast.OpNeg:
			return mat.Neg(v)
		case ast.OpPos:
			return mat.UPlus(v)
		case ast.OpNot:
			return mat.Not(v)
		}
		return nil, fmt.Errorf("unknown unary operator")

	case *ast.Transpose:
		v, err := in.evalCtx(x.X, env, ctx)
		if err != nil {
			return nil, err
		}
		if x.Conjugate {
			return mat.Transpose(v)
		}
		return mat.DotTranspose(v)

	case *ast.Range:
		lo, err := in.evalCtx(x.Lo, env, ctx)
		if err != nil {
			return nil, err
		}
		step := mat.Scalar(1)
		if x.Step != nil {
			step, err = in.evalCtx(x.Step, env, ctx)
			if err != nil {
				return nil, err
			}
		}
		hi, err := in.evalCtx(x.Hi, env, ctx)
		if err != nil {
			return nil, err
		}
		return mat.Colon(lo, step, hi)

	case *ast.Colon:
		return nil, fmt.Errorf("':' is only valid inside subscripts")

	case *ast.End:
		if ctx == nil || ctx.endVal == nil {
			return nil, fmt.Errorf("'end' is only valid inside subscripts")
		}
		return mat.IntScalar(ctx.endVal(x.Dim)), nil

	case *ast.Call:
		vals, err := in.evalCallCtx(x, env, 1, ctx)
		if err != nil {
			return nil, err
		}
		if len(vals) == 0 {
			return nil, fmt.Errorf("%s: no value returned", x.Name)
		}
		return vals[0], nil

	case *ast.Matrix:
		parts := make([][]*mat.Value, len(x.Rows))
		for i, row := range x.Rows {
			parts[i] = make([]*mat.Value, len(row))
			for j, elem := range row {
				v, err := in.evalCtx(elem, env, ctx)
				if err != nil {
					return nil, err
				}
				parts[i][j] = v
			}
		}
		return mat.Cat(parts)
	}
	return nil, fmt.Errorf("unsupported expression %T", e)
}

func (in *Interp) evalBinary(x *ast.Binary, env *Env, ctx *evalCtx) (*mat.Value, error) {
	// Short-circuit forms evaluate scalars lazily.
	if x.Op == ast.OpAndAnd || x.Op == ast.OpOrOr {
		l, err := in.evalCtx(x.L, env, ctx)
		if err != nil {
			return nil, err
		}
		lt := l.IsTrue()
		if x.Op == ast.OpAndAnd && !lt {
			return mat.BoolScalar(false), nil
		}
		if x.Op == ast.OpOrOr && lt {
			return mat.BoolScalar(true), nil
		}
		r, err := in.evalCtx(x.R, env, ctx)
		if err != nil {
			return nil, err
		}
		return mat.BoolScalar(r.IsTrue()), nil
	}
	l, err := in.evalCtx(x.L, env, ctx)
	if err != nil {
		return nil, err
	}
	r, err := in.evalCtx(x.R, env, ctx)
	if err != nil {
		return nil, err
	}
	return builtins.EvalBinOp(x.Op, l, r)
}

// evalCallN evaluates a call expression requesting nout outputs.
func (in *Interp) evalCallN(x *ast.Call, env *Env, nout int) ([]*mat.Value, error) {
	return in.evalCallCtx(x, env, nout, nil)
}

// evalCallCtx resolves the name(args) ambiguity at runtime, exactly as
// the MATLAB interpreter does: variable indexing first, then builtins,
// then user functions.
func (in *Interp) evalCallCtx(x *ast.Call, env *Env, nout int, ctx *evalCtx) ([]*mat.Value, error) {
	if base, ok := env.Lookup(x.Name); ok {
		// Indexing.
		subs, err := in.evalSubscripts(x.Args, base, env)
		if err != nil {
			return nil, err
		}
		var v *mat.Value
		switch len(subs) {
		case 0:
			base.MarkShared()
			v = base
		case 1:
			v, err = mat.Index1(base, subs[0])
		case 2:
			v, err = mat.Index2(base, subs[0], subs[1])
		default:
			err = fmt.Errorf("unsupported number of subscripts (%d)", len(subs))
		}
		if err != nil {
			return nil, err
		}
		return []*mat.Value{v}, nil
	}
	// Function call: evaluate arguments (no 'end' context inside).
	args := make([]*mat.Value, len(x.Args))
	for i, a := range x.Args {
		if _, isColon := a.(*ast.Colon); isColon {
			return nil, fmt.Errorf("%s is not a variable; ':' subscript is invalid here", x.Name)
		}
		v, err := in.evalCtx(a, env, ctx)
		if err != nil {
			return nil, err
		}
		args[i] = v
	}
	if b := builtins.Lookup(x.Name); b != nil {
		return builtins.Call(in.host.Context(), b, args, nout)
	}
	if in.host.LookupFunction(x.Name) != nil {
		return in.host.CallFunction(x.Name, args, nout)
	}
	return nil, fmt.Errorf("undefined function or variable %q", x.Name)
}

// CallFunction interprets a user function body with call-by-value
// argument binding in a fresh frame.
func (in *Interp) CallFunction(fn *ast.Function, args []*mat.Value, nout int, globals map[string]*mat.Value) ([]*mat.Value, error) {
	if len(args) > len(fn.Ins) {
		return nil, tooManyArgs(fn)
	}
	env := NewEnv(globals)
	for i, a := range args {
		// Call-by-value: the callee sees a private copy. Like MATLAB's
		// refcounted arrays, the copy is deferred: the value is marked
		// shared and cloned only if the callee writes into it.
		a.MarkShared()
		env.Bind(fn.Ins[i], a)
	}
	env.Bind("nargin", mat.IntScalar(float64(len(args))))
	env.Bind("nargout", mat.IntScalar(float64(nout)))
	c, err := in.execBlock(fn.Body, env)
	switch {
	case err != nil:
		return nil, err
	case c == ctlBreak || c == ctlContinue:
		return nil, errLooseBreak()
	}
	return collectOuts(fn, env, nout)
}

func tooManyArgs(fn *ast.Function) error {
	return fmt.Errorf("%s: too many input arguments", fn.Name)
}

func errLooseBreak() error {
	return fmt.Errorf("break/continue outside a loop")
}

// collectOuts extracts a finished activation's output values from its
// environment.
func collectOuts(fn *ast.Function, env *Env, nout int) ([]*mat.Value, error) {
	if nout < 1 {
		nout = 1
	}
	outs := make([]*mat.Value, 0, nout)
	for i := 0; i < len(fn.Outs) && i < nout; i++ {
		v, ok := env.Lookup(fn.Outs[i])
		if !ok {
			if i == 0 && nout == 1 {
				// A function whose single output was never assigned is an
				// error only if the caller uses the value; return empty.
				outs = append(outs, mat.Empty())
				continue
			}
			return nil, fmt.Errorf("%s: output argument %q not assigned", fn.Name, fn.Outs[i])
		}
		outs = append(outs, v)
	}
	if len(fn.Outs) == 0 {
		outs = append(outs, mat.Empty())
	}
	for _, v := range outs {
		// Returned values may alias callee locals that were arguments.
		v.MarkShared()
	}
	return outs, nil
}
