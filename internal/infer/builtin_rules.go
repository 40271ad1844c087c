package infer

import (
	"math"

	"repro/internal/types"
)

// registerBuiltinRules adds the forward rules for built-in functions.
// Several encode the "exact shape inference" synergy of §2.4: when the
// value ranges of m and n uniquely determine them, zeros(m,n) gets an
// exact shape; size/length of an exactly-shaped array is a constant.
func registerBuiltinRules(c *Calculator) {
	reg := c.add

	// --- constructors ------------------------------------------------------
	ctor := func(name string, rng types.Range) {
		reg(name, name+" with constant sizes", func(a []types.Type) bool {
			return constShapeArgs(a) != nil
		}, func(a []types.Type) types.Type {
			s := constShapeArgs(a)
			return types.Type{I: types.IReal, MinShape: *s, MaxShape: *s, R: rng}
		})
		reg(name, name+" with bounded sizes", func(a []types.Type) bool {
			return boundedShapeArgs(a) != nil
		}, func(a []types.Type) types.Type {
			s := boundedShapeArgs(a)
			return types.Type{I: types.IReal, MinShape: types.ShapeBot, MaxShape: *s, R: rng}
		})
		reg(name, name+" generic", nArgs0toN(2), func(a []types.Type) types.Type {
			return types.Type{I: types.IReal, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: rng}
		})
	}
	ctor("zeros", types.Const(0))
	ctor("ones", types.Const(1))
	ctor("eye", types.MkRange(0, 1))
	ctor("rand", types.MkRange(0, 1))
	ctor("randn", types.RangeTop)

	// --- shape queries -------------------------------------------------------
	reg("size", "size of exactly-shaped array (constant)", func(a []types.Type) bool {
		if len(a) != 2 {
			return false
		}
		_, _, ok := a[0].ExactShape()
		if !ok {
			return false
		}
		_, isC := a[1].R.IsConst()
		return isC
	}, func(a []types.Type) types.Type {
		r, cc, _ := a[0].ExactShape()
		d, _ := a[1].R.IsConst()
		if d == 1 {
			return types.ScalarOf(types.IInt, types.Const(float64(r)))
		}
		if d == 2 {
			return types.ScalarOf(types.IInt, types.Const(float64(cc)))
		}
		return types.ScalarOf(types.IInt, types.Const(1))
	})
	reg("size", "size along a dimension", func(a []types.Type) bool { return len(a) == 2 }, func(a []types.Type) types.Type {
		d, isC := a[1].R.IsConst()
		lo, hi := 0.0, math.Inf(1)
		if isC {
			minE, maxE := extentAlong(a[0], int(d))
			lo = float64(minE.Int())
			if !maxE.IsInf() {
				hi = float64(maxE.Int())
			}
		}
		return types.ScalarOf(types.IInt, types.MkRange(lo, hi))
	})
	reg("size", "size vector", nArgs(1), func(a []types.Type) types.Type {
		if r, cc, ok := a[0].ExactShape(); ok {
			lo := math.Min(float64(r), float64(cc))
			hi := math.Max(float64(r), float64(cc))
			return types.Exact(types.IInt, 1, 2, types.MkRange(lo, hi))
		}
		return types.Exact(types.IInt, 1, 2, types.MkRange(0, math.Inf(1)))
	})
	reg("length", "length of exactly-shaped array", func(a []types.Type) bool {
		_, _, ok := a[0].ExactShape()
		return len(a) == 1 && ok
	}, func(a []types.Type) types.Type {
		r, cc, _ := a[0].ExactShape()
		n := r
		if cc > n {
			n = cc
		}
		if r == 0 || cc == 0 {
			n = 0
		}
		return types.ScalarOf(types.IInt, types.Const(float64(n)))
	})
	reg("length", "length", nArgs(1), func(a []types.Type) types.Type {
		lo := 0.0
		hi := math.Inf(1)
		if !a[0].MaxShape.R.IsInf() && !a[0].MaxShape.C.IsInf() {
			hi = math.Max(float64(a[0].MaxShape.R.Int()), float64(a[0].MaxShape.C.Int()))
		}
		return types.ScalarOf(types.IInt, types.MkRange(lo, hi))
	})
	reg("numel", "numel of exactly-shaped array", func(a []types.Type) bool {
		_, _, ok := a[0].ExactShape()
		return len(a) == 1 && ok
	}, func(a []types.Type) types.Type {
		r, cc, _ := a[0].ExactShape()
		return types.ScalarOf(types.IInt, types.Const(float64(r*cc)))
	})
	reg("numel", "numel", nArgs(1), func(a []types.Type) types.Type {
		return types.ScalarOf(types.IInt, types.MkRange(0, math.Inf(1)))
	})

	// --- predicates ------------------------------------------------------------
	for _, name := range []string{"isempty", "isreal", "isscalar", "any", "all"} {
		name := name
		reg(name, name, nArgs(1), func(a []types.Type) types.Type {
			if name == "any" || name == "all" {
				return boolResult(reduceShape(a[0]))
			}
			return boolResult(types.ScalarShape, types.ScalarShape)
		})
	}

	// --- elementwise math --------------------------------------------------------
	unary := func(name string, app func(t types.Type) types.Type, pre func(t types.Type) bool, desc string) {
		reg(name, desc, func(a []types.Type) bool { return len(a) == 1 && (pre == nil || pre(a[0])) },
			func(a []types.Type) types.Type { return app(a[0]) })
	}
	elemReal := func(t types.Type, r types.Range) types.Type {
		return types.Type{I: types.IReal, MinShape: t.MinShape, MaxShape: t.MaxShape, R: r}
	}
	elemInt := func(t types.Type, r types.Range) types.Type {
		i := types.IInt
		if !types.LeqI(t.I, types.ICplx) {
			i = types.IReal
		}
		return types.Type{I: i, MinShape: t.MinShape, MaxShape: t.MaxShape, R: r}
	}

	unary("abs", func(t types.Type) types.Type { return elemReal(t, absR(numericRange(t))) }, nil, "abs (complex → real)")
	unary("sqrt", func(t types.Type) types.Type {
		return elemReal(t, monoR(t.R, math.Sqrt))
	}, func(t types.Type) bool {
		return types.LeqI(t.I, types.IReal) && !t.R.IsBot() && t.R.Lo >= 0
	}, "sqrt of provably nonnegative reals")
	unary("sqrt", func(t types.Type) types.Type {
		return types.Type{I: types.ICplx, MinShape: t.MinShape, MaxShape: t.MaxShape, R: types.RangeTop}
	}, nil, "sqrt (complex possible)")
	unary("exp", func(t types.Type) types.Type {
		if types.LeqI(t.I, types.IReal) {
			return elemReal(t, monoR(t.R, math.Exp))
		}
		return types.Type{I: types.ICplx, MinShape: t.MinShape, MaxShape: t.MaxShape, R: types.RangeTop}
	}, nil, "exp")
	unary("log", func(t types.Type) types.Type {
		if types.LeqI(t.I, types.IReal) && !t.R.IsBot() && t.R.Lo > 0 {
			return elemReal(t, monoR(t.R, math.Log))
		}
		return types.Type{I: types.ICplx, MinShape: t.MinShape, MaxShape: t.MaxShape, R: types.RangeTop}
	}, nil, "log")
	for _, name := range []string{"sin", "cos"} {
		unary(name, func(t types.Type) types.Type {
			if types.LeqI(t.I, types.IReal) {
				return elemReal(t, types.MkRange(-1, 1))
			}
			return types.Type{I: types.ICplx, MinShape: t.MinShape, MaxShape: t.MaxShape, R: types.RangeTop}
		}, nil, name)
	}
	for _, name := range []string{"tan", "asin", "acos", "atan", "sinh", "cosh", "tanh", "log2", "log10"} {
		unary(name, func(t types.Type) types.Type {
			if types.LeqI(t.I, types.IReal) {
				return elemReal(t, types.RangeTop)
			}
			return types.Type{I: types.ICplx, MinShape: t.MinShape, MaxShape: t.MaxShape, R: types.RangeTop}
		}, nil, name)
	}
	// The rounding builtins return integral values, but IInt also means
	// "not −0" (an I register has none): the result is an int only when
	// the argument is one (its own rounding) or its range misses every
	// value that rounds to −0 — [lo, 0], open at lo when loOpen. A range
	// that holds 0 may hold −0.
	rounding := func(name string, r func(types.Range) types.Range, lo float64, loOpen bool) {
		unary(name, func(t types.Type) types.Type {
			out := elemInt(t, r(t.R))
			if !types.LeqI(t.I, types.IInt) && !t.R.IsBot() && t.R.Lo <= 0 && (t.R.Hi > lo || !loOpen && t.R.Hi == lo) {
				out.I = types.IReal
			}
			return out
		}, nil, name)
	}
	mono := func(f func(float64) float64) func(types.Range) types.Range {
		return func(r types.Range) types.Range { return monoR(r, f) }
	}
	rounding("floor", mono(math.Floor), 0, false)
	rounding("ceil", mono(math.Ceil), -1, true)
	rounding("round", mono(func(x float64) float64 { return math.Floor(x + 0.5) }), -0.5, false)
	rounding("fix", mono(math.Trunc), -1, true)
	rounding("sign", func(types.Range) types.Range { return types.MkRange(-1, 1) }, 0, false)
	unary("real", func(t types.Type) types.Type { return elemReal(t, numericRange(t)) }, nil, "real part")
	unary("imag", func(t types.Type) types.Type { return elemReal(t, types.RangeTop) }, nil, "imag part")
	unary("conj", func(t types.Type) types.Type { return t }, nil, "conjugate")
	unary("angle", func(t types.Type) types.Type { return elemReal(t, types.MkRange(-math.Pi, math.Pi)) }, nil, "angle")

	reg("atan2", "atan2", nArgs(2), func(a []types.Type) types.Type {
		minS, maxS := elemShape(a[0], a[1])
		return types.Type{I: types.IReal, MinShape: minS, MaxShape: maxS, R: types.MkRange(-math.Pi, math.Pi)}
	})
	reg("mod", "mod with constant positive modulus", func(a []types.Type) bool {
		if len(a) != 2 {
			return false
		}
		m, ok := a[1].R.IsConst()
		return ok && m > 0
	}, func(a []types.Type) types.Type {
		m, _ := a[1].R.IsConst()
		minS, maxS := elemShape(a[0], a[1])
		return types.Type{I: remI(a), MinShape: minS, MaxShape: maxS, R: types.MkRange(0, m)}
	})
	reg("mod", "mod", nArgs(2), func(a []types.Type) types.Type {
		minS, maxS := elemShape(a[0], a[1])
		return types.Type{I: types.IReal, MinShape: minS, MaxShape: maxS, R: types.RangeTop}
	})
	reg("rem", "rem", nArgs(2), func(a []types.Type) types.Type {
		minS, maxS := elemShape(a[0], a[1])
		return types.Type{I: remI(a), MinShape: minS, MaxShape: maxS, R: types.RangeTop}
	})

	// --- reductions ----------------------------------------------------------------
	reg("sum", "sum", nArgs(1), func(a []types.Type) types.Type {
		minS, maxS := reduceShape(a[0])
		i := a[0].I
		if i == types.IBool {
			i = types.IInt
		}
		if i == types.IStrg {
			i = types.IReal
		}
		return types.Type{I: i, MinShape: minS, MaxShape: maxS, R: types.RangeTop}
	})
	reg("prod", "prod", nArgs(1), func(a []types.Type) types.Type {
		minS, maxS := reduceShape(a[0])
		return types.Type{I: a[0].I, MinShape: minS, MaxShape: maxS, R: types.RangeTop}
	})
	reg("mean", "mean", nArgs(1), func(a []types.Type) types.Type {
		minS, maxS := reduceShape(a[0])
		return types.Type{I: types.IReal, MinShape: minS, MaxShape: maxS, R: numericRange(a[0])}
	})
	for _, name := range []string{"max", "min"} {
		name := name
		reg(name, name+" of two scalars", func(a []types.Type) bool {
			return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar()
		}, func(a []types.Type) types.Type {
			i := arithI(a[0].I, a[1].I, types.IBool)
			var r types.Range
			if name == "max" {
				r = types.MkRange(math.Max(a[0].R.Lo, a[1].R.Lo), math.Max(a[0].R.Hi, a[1].R.Hi))
			} else {
				r = types.MkRange(math.Min(a[0].R.Lo, a[1].R.Lo), math.Min(a[0].R.Hi, a[1].R.Hi))
			}
			if a[0].R.IsBot() || a[1].R.IsBot() || !types.LeqI(i, types.IReal) {
				r = types.RangeTop
			}
			return types.ScalarOf(i, r)
		})
		reg(name, name+" elementwise", nArgs(2), func(a []types.Type) types.Type {
			minS, maxS := elemShape(a[0], a[1])
			return types.Type{I: arithI(a[0].I, a[1].I, types.IBool), MinShape: minS, MaxShape: maxS, R: types.JoinR(numericRange(a[0]), numericRange(a[1]))}
		})
		reg(name, name+" reduction", nArgs(1), func(a []types.Type) types.Type {
			minS, maxS := reduceShape(a[0])
			i := a[0].I
			if i == types.IStrg {
				i = types.IReal
			}
			return types.Type{I: i, MinShape: minS, MaxShape: maxS, R: numericRange(a[0])}
		})
	}

	// --- vectors / linear algebra ----------------------------------------------------
	reg("norm", "norm", nArgs0toN(2), func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, types.MkRange(0, math.Inf(1)))
	})
	reg("dot", "dot", nArgs(2), func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, types.RangeTop)
	})
	reg("det", "det", nArgs(1), func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, types.RangeTop)
	})
	reg("eig", "eig (complex eigenvalues possible)", nArgs(1), func(a []types.Type) types.Type {
		// A general real matrix can have complex eigenvalues; without
		// knowing symmetry the engine must assume complex — the very
		// conservatism that costs the mei benchmark its performance.
		return types.Type{
			I:        types.ICplx,
			MinShape: types.Shape{R: a[0].MinShape.R, C: types.Fin(1)},
			MaxShape: types.Shape{R: a[0].MaxShape.R, C: types.Fin(1)},
			R:        types.RangeTop,
		}
	})
	reg("inv", "inv", nArgs(1), func(a []types.Type) types.Type {
		return types.Type{I: types.IReal, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: types.RangeTop}
	})
	reg("chol", "chol", nArgs(1), func(a []types.Type) types.Type {
		return types.Type{I: types.IReal, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: types.RangeTop}
	})
	reg("lu", "lu factor", nArgs(1), func(a []types.Type) types.Type {
		return types.Type{I: types.IReal, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: types.RangeTop}
	})
	for _, name := range []string{"diag", "tril", "triu"} {
		name := name
		reg(name, name, nArgs0toN(2), func(a []types.Type) types.Type {
			if name == "diag" {
				return types.Type{I: a[0].I, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: numericRange(a[0])}
			}
			return types.Type{I: a[0].I, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: types.JoinR(numericRange(a[0]), types.Const(0))}
		})
	}
	reg("find", "find", nArgs(1), func(a []types.Type) types.Type {
		hi := math.Inf(1)
		if n, ok := a[0].MaxShape.Numel(); ok {
			hi = float64(n)
		}
		return types.Type{I: types.IInt, MinShape: types.ShapeBot, MaxShape: a[0].MaxShape, R: types.MkRange(1, hi)}
	})
	reg("linspace", "linspace with constant count", func(a []types.Type) bool {
		if len(a) != 3 {
			return false
		}
		_, ok := a[2].R.IsConst()
		return ok
	}, func(a []types.Type) types.Type {
		n, _ := a[2].R.IsConst()
		return types.Exact(types.IReal, 1, int(n), types.JoinR(numericRange(a[0]), numericRange(a[1])))
	})
	reg("linspace", "linspace", nArgs0toN(3), func(a []types.Type) types.Type {
		return types.Type{I: types.IReal, MinShape: types.Shape{R: types.Fin(1), C: types.Fin(0)},
			MaxShape: types.Shape{R: types.Fin(1), C: types.InfExt}, R: types.RangeTop}
	})
	reg("reshape", "reshape with constant dims", func(a []types.Type) bool {
		if len(a) != 3 {
			return false
		}
		_, ok1 := a[1].R.IsConst()
		_, ok2 := a[2].R.IsConst()
		return ok1 && ok2
	}, func(a []types.Type) types.Type {
		r, _ := a[1].R.IsConst()
		cc, _ := a[2].R.IsConst()
		s := types.Shape{R: types.Fin(int(r)), C: types.Fin(int(cc))}
		return types.Type{I: a[0].I, MinShape: s, MaxShape: s, R: a[0].R}
	})
	reg("reshape", "reshape", nArgs(3), func(a []types.Type) types.Type {
		return types.Type{I: a[0].I, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: a[0].R}
	})
	reg("repmat", "repmat", nArgs(3), func(a []types.Type) types.Type {
		return types.Type{I: a[0].I, MinShape: types.ShapeBot, MaxShape: types.ShapeTop, R: a[0].R}
	})
	reg("sort", "sort", nArgs(1), func(a []types.Type) types.Type {
		return types.Type{I: a[0].I, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: a[0].R}
	})

	// --- sparse representation ----------------------------------------------------------
	// The constructors' Sp=true bit is applied by sparseAdjust (sparse.go);
	// the rule bodies here only compute intrinsic/shape/range.
	ctor("speye", types.MkRange(0, 1))
	reg("sparse", "sparse of a matrix", func(a []types.Type) bool {
		return len(a) == 1 && types.LeqI(a[0].I, types.IReal)
	}, func(a []types.Type) types.Type {
		return types.Type{I: types.IReal, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: numericRange(a[0])}
	})
	reg("sparse", "sparse(m,n) all-zero", func(a []types.Type) bool {
		return len(a) == 2 && constShapeArgs(a) != nil
	}, func(a []types.Type) types.Type {
		s := constShapeArgs(a)
		return types.Type{I: types.IReal, MinShape: *s, MaxShape: *s, R: types.Const(0)}
	})
	reg("sparse", "sparse constructor", anyArgs, func(a []types.Type) types.Type {
		return types.MatrixOf(types.IReal)
	})
	reg("spdiags", "spdiags with constant sizes", func(a []types.Type) bool {
		return len(a) == 4 && constShapeArgs(a[2:]) != nil
	}, func(a []types.Type) types.Type {
		s := constShapeArgs(a[2:])
		return types.Type{I: types.IReal, MinShape: *s, MaxShape: *s, R: types.RangeTop}
	})
	reg("spdiags", "spdiags", nArgs(4), func(a []types.Type) types.Type {
		return types.MatrixOf(types.IReal)
	})
	reg("full", "full", nArgs(1), func(a []types.Type) types.Type {
		i := a[0].I
		if i == types.IStrg || i == types.ITop {
			i = types.IReal
		}
		return types.Type{I: i, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: numericRange(a[0])}
	})
	reg("nnz", "nnz", nArgs(1), func(a []types.Type) types.Type {
		hi := math.Inf(1)
		if n, ok := a[0].MaxShape.Numel(); ok {
			hi = float64(n)
		}
		return types.ScalarOf(types.IInt, types.MkRange(0, hi))
	})
	reg("issparse", "issparse", nArgs(1), func(a []types.Type) types.Type {
		return boolResult(types.ScalarShape, types.ScalarShape)
	})

	// --- strings / io -------------------------------------------------------------------
	reg("sprintf", "sprintf", anyArgs, func(a []types.Type) types.Type { return types.MatrixOf(types.IStrg) })
	reg("num2str", "num2str", nArgs(1), func(a []types.Type) types.Type { return types.MatrixOf(types.IStrg) })
	reg("disp", "disp", nArgs(1), func(a []types.Type) types.Type { return types.Exact(types.IReal, 0, 0, types.RangeBot) })
	reg("fprintf", "fprintf", anyArgs, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IInt, types.MkRange(0, math.Inf(1)))
	})
	reg("error", "error never returns", anyArgs, func(a []types.Type) types.Type { return types.Bottom })
	reg("tic", "tic", nArgs(0), func(a []types.Type) types.Type { return types.Exact(types.IReal, 0, 0, types.RangeBot) })
	reg("toc", "toc", nArgs(0), func(a []types.Type) types.Type { return types.ScalarOf(types.IReal, types.MkRange(0, math.Inf(1))) })

	// --- constants -------------------------------------------------------------------------
	constRule := func(name string, t types.Type) {
		reg(name, "constant "+name, nArgs(0), func(a []types.Type) types.Type { return t })
	}
	constRule("pi", types.ScalarOf(types.IReal, types.Const(math.Pi)))
	constRule("e", types.ScalarOf(types.IReal, types.Const(math.E)))
	constRule("eps", types.ScalarOf(types.IReal, types.Const(2.220446049250313e-16)))
	constRule("Inf", types.ScalarOf(types.IReal, types.MkRange(math.Inf(1), math.Inf(1))))
	constRule("inf", types.ScalarOf(types.IReal, types.MkRange(math.Inf(1), math.Inf(1))))
	constRule("NaN", types.ScalarOf(types.IReal, types.RangeTop))
	constRule("nan", types.ScalarOf(types.IReal, types.RangeTop))
	constRule("i", types.ScalarOf(types.ICplx, types.RangeTop))
	constRule("j", types.ScalarOf(types.ICplx, types.RangeTop))
	constRule("true", types.ScalarOf(types.IBool, types.Const(1)))
	constRule("false", types.ScalarOf(types.IBool, types.Const(0)))
}

func anyArgs([]types.Type) bool { return true }

// remI is the intrinsic of mod(x, m) and rem(x, m): arithmetic on the
// operands, except that a negative multiple of m gives −0, which IInt
// cannot hold, so an int result needs a dividend that is never negative.
func remI(a []types.Type) types.Intrinsic {
	i := arithI(a[0].I, a[1].I, types.IBool)
	if i == types.IInt && !(a[0].R.Lo >= 0) {
		return types.IReal
	}
	return i
}

func nArgs0toN(n int) func([]types.Type) bool {
	return func(a []types.Type) bool { return len(a) <= n }
}

// constShapeArgs decodes constructor size arguments with constant
// ranges into an exact shape; nil when not constant.
func constShapeArgs(a []types.Type) *types.Shape {
	switch len(a) {
	case 0:
		s := types.ScalarShape
		return &s
	case 1:
		if n, ok := a[0].R.IsConst(); ok && a[0].IsScalar() && n == math.Trunc(n) && n >= 0 {
			s := types.Shape{R: types.Fin(int(n)), C: types.Fin(int(n))}
			return &s
		}
	case 2:
		r, ok1 := a[0].R.IsConst()
		c, ok2 := a[1].R.IsConst()
		if ok1 && ok2 && r == math.Trunc(r) && c == math.Trunc(c) && r >= 0 && c >= 0 {
			s := types.Shape{R: types.Fin(int(r)), C: types.Fin(int(c))}
			return &s
		}
	}
	return nil
}

// boundedShapeArgs derives an upper shape bound from bounded size args.
func boundedShapeArgs(a []types.Type) *types.Shape {
	ext := func(t types.Type) (types.Extent, bool) {
		if t.R.IsBot() || math.IsInf(t.R.Hi, 1) {
			return types.InfExt, false
		}
		return types.Fin(int(t.R.Hi)), true
	}
	switch len(a) {
	case 1:
		if e, ok := ext(a[0]); ok {
			s := types.Shape{R: e, C: e}
			return &s
		}
	case 2:
		er, ok1 := ext(a[0])
		ec, ok2 := ext(a[1])
		if ok1 && ok2 {
			s := types.Shape{R: er, C: ec}
			return &s
		}
	}
	return nil
}

// reduceShape gives the shape of a columnwise reduction: vectors (and
// scalars) reduce to a scalar; an m x n matrix reduces to 1 x n.
func reduceShape(t types.Type) (types.Shape, types.Shape) {
	if t.IsScalar() {
		return types.ScalarShape, types.ScalarShape
	}
	isVec := func(s types.Shape) bool {
		return types.LeqE(s.R, types.Fin(1)) || types.LeqE(s.C, types.Fin(1))
	}
	if isVec(t.MaxShape) {
		return types.ScalarShape, types.ScalarShape
	}
	// Could be a matrix: result is 1 x cols (or scalar for vectors).
	minS := types.Shape{R: types.Fin(1), C: types.Fin(1)}
	maxS := types.Shape{R: types.Fin(1), C: t.MaxShape.C}
	if r, c, ok := t.ExactShape(); ok && r > 1 && c > 0 {
		minS = types.Shape{R: types.Fin(1), C: types.Fin(c)}
		maxS = minS
	}
	return minS, maxS
}

// extentAlong returns the min/max extent of a type along dimension d
// (1 = rows, 2 = cols).
func extentAlong(t types.Type, d int) (types.Extent, types.Extent) {
	if d == 1 {
		return t.MinShape.R, t.MaxShape.R
	}
	return t.MinShape.C, t.MaxShape.C
}
