package infer

import (
	"math"

	"repro/internal/types"
)

// newCalculator builds the forward rule database. Rule ordering within a
// name follows the paper: most restrictive (best-performing code) first,
// ending just above the implicit ⊤ default. The "*" entries, for
// example, successively cover integer scalar multiply, real scalar
// multiply, complex scalar multiply, scalar×matrix, matrix product
// (dgemv/dgemm territory), and finally the generic complex fallback —
// the exact progression §2.3.1 lists.
func newCalculator() *Calculator {
	c := &Calculator{forward: map[string][]Rule{}}

	reg := func(name, desc string, pre func([]types.Type) bool, app func([]types.Type) types.Type) {
		c.add(name, desc, pre, app)
	}

	// ---- elementwise arithmetic ------------------------------------------
	type ewOp struct {
		name  string
		floor types.Intrinsic // minimum result intrinsic
		rng   func(a, b types.Range) types.Range
	}
	for _, op := range []ewOp{
		{"+", types.IBool, addR},
		{"-", types.IBool, subR},
		{".*", types.IBool, mulR},
		{"./", types.IReal, divR},
		{".\\", types.IReal, func(a, b types.Range) types.Range { return divR(b, a) }},
	} {
		op := op
		reg(op.name, "int scalar "+op.name, func(a []types.Type) bool {
			return len(a) == 2 && isIntScalar(a[0]) && isIntScalar(a[1]) && op.floor != types.IReal &&
				(op.name != ".*" || !mayMakeNegZero(a[0].R, a[1].R))
		}, func(a []types.Type) types.Type {
			return types.ScalarOf(types.IInt, op.rng(a[0].R, a[1].R))
		})
		reg(op.name, "real scalar "+op.name, func(a []types.Type) bool {
			return len(a) == 2 && isRealScalar(a[0]) && isRealScalar(a[1])
		}, func(a []types.Type) types.Type {
			return types.ScalarOf(types.IReal, op.rng(a[0].R, a[1].R))
		})
		reg(op.name, "complex scalar "+op.name, func(a []types.Type) bool {
			return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar() &&
				types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
		}, func(a []types.Type) types.Type {
			return types.ScalarOf(types.ICplx, types.RangeTop)
		})
		reg(op.name, "elementwise "+op.name, func(a []types.Type) bool {
			return len(a) == 2 && types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
		}, func(a []types.Type) types.Type {
			minS, maxS := elemShape(a[0], a[1])
			i := arithI(a[0].I, a[1].I, op.floor)
			r := types.RangeTop
			if types.LeqI(i, types.IReal) {
				r = op.rng(numericRange(a[0]), numericRange(a[1]))
			}
			if op.floor == types.IReal && i == types.IInt {
				i = types.IReal
			}
			return types.Type{I: i, MinShape: minS, MaxShape: maxS, R: r}
		})
	}
	// Integer-preservation fix for + - .*: int op int stays int, except a
	// product that may be 0 times a negative, which is −0 and so real.
	// (Division is never integer-preserving; handled by floor above.)

	// ---- * (matrix product) ----------------------------------------------
	reg("*", "integer scalar multiply", func(a []types.Type) bool {
		return len(a) == 2 && isIntScalar(a[0]) && isIntScalar(a[1]) && !mayMakeNegZero(a[0].R, a[1].R)
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IInt, mulR(a[0].R, a[1].R))
	})
	reg("*", "real scalar multiply", func(a []types.Type) bool {
		return len(a) == 2 && isRealScalar(a[0]) && isRealScalar(a[1])
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, mulR(a[0].R, a[1].R))
	})
	reg("*", "complex scalar multiply", func(a []types.Type) bool {
		return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar() &&
			types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.ICplx, types.RangeTop)
	})
	reg("*", "scalar × matrix", func(a []types.Type) bool {
		return len(a) == 2 && a[0].IsScalar() && types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
	}, func(a []types.Type) types.Type {
		i := arithI(a[0].I, a[1].I, types.IBool)
		r := types.RangeTop
		if types.LeqI(i, types.IReal) {
			r = mulR(numericRange(a[0]), numericRange(a[1]))
		}
		return types.Type{I: i, MinShape: a[1].MinShape, MaxShape: a[1].MaxShape, R: r}
	})
	reg("*", "matrix × scalar", func(a []types.Type) bool {
		return len(a) == 2 && a[1].IsScalar() && types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
	}, func(a []types.Type) types.Type {
		i := arithI(a[0].I, a[1].I, types.IBool)
		r := types.RangeTop
		if types.LeqI(i, types.IReal) {
			r = mulR(numericRange(a[0]), numericRange(a[1]))
		}
		return types.Type{I: i, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: r}
	})
	reg("*", "real matrix product (dgemv/dgemm)", func(a []types.Type) bool {
		return len(a) == 2 && types.LeqI(a[0].I, types.IReal) && types.LeqI(a[1].I, types.IReal)
	}, func(a []types.Type) types.Type {
		return matMulShape(a[0], a[1], types.IReal)
	})
	reg("*", "generic complex matrix product", func(a []types.Type) bool {
		return len(a) == 2 && types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
	}, func(a []types.Type) types.Type {
		return matMulShape(a[0], a[1], types.ICplx)
	})

	// ---- / and \ -----------------------------------------------------------
	reg("/", "scalar divide", func(a []types.Type) bool {
		return len(a) == 2 && isRealScalar(a[0]) && isRealScalar(a[1])
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, divR(a[0].R, a[1].R))
	})
	reg("/", "complex scalar divide", func(a []types.Type) bool {
		return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar() &&
			types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.ICplx, types.RangeTop)
	})
	reg("/", "matrix / scalar", func(a []types.Type) bool {
		return len(a) == 2 && a[1].IsScalar() && types.LeqI(a[0].I, types.ICplx) && types.LeqI(a[1].I, types.ICplx)
	}, func(a []types.Type) types.Type {
		i := arithI(a[0].I, a[1].I, types.IReal)
		r := types.RangeTop
		if types.LeqI(i, types.IReal) {
			r = divR(numericRange(a[0]), numericRange(a[1]))
		}
		return types.Type{I: i, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: r}
	})
	reg("/", "mrdivide", allNumericLeq(types.ICplx), func(a []types.Type) types.Type {
		return types.MatrixOf(types.IReal)
	})
	reg("\\", "scalar left divide", func(a []types.Type) bool {
		return len(a) == 2 && isRealScalar(a[0]) && isRealScalar(a[1])
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, divR(a[1].R, a[0].R))
	})
	reg("\\", "linear solve A\\b", func(a []types.Type) bool {
		return len(a) == 2 && types.LeqI(a[0].I, types.IReal) && types.LeqI(a[1].I, types.IReal)
	}, func(a []types.Type) types.Type {
		// x has A's column count as rows and b's column count as cols.
		return types.Type{
			I:        types.IReal,
			MinShape: types.Shape{R: a[0].MinShape.C, C: a[1].MinShape.C},
			MaxShape: types.Shape{R: a[0].MaxShape.C, C: a[1].MaxShape.C},
			R:        types.RangeTop,
		}
	})

	// ---- powers -------------------------------------------------------------
	reg("^", "int scalar power", func(a []types.Type) bool {
		return len(a) == 2 && isIntScalar(a[0]) && isIntScalar(a[1]) && a[1].R.Lo >= 0 && !a[1].R.IsBot()
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IInt, powR(a[0].R, a[1].R))
	})
	reg("^", "real scalar power (nonnegative base)", func(a []types.Type) bool {
		return len(a) == 2 && isRealScalar(a[0]) && isRealScalar(a[1]) && a[0].R.Lo >= 0 && !a[0].R.IsBot()
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, powR(a[0].R, a[1].R))
	})
	reg("^", "real scalar power (integer exponent)", func(a []types.Type) bool {
		if len(a) != 2 || !isRealScalar(a[0]) || !isIntScalar(a[1]) {
			return false
		}
		return true
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, powR(a[0].R, a[1].R))
	})
	reg("^", "scalar power (complex result possible)", func(a []types.Type) bool {
		return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar()
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.ICplx, types.RangeTop)
	})
	// .^ mirrors ^ elementwise.
	reg(".^", "int scalar elementwise power", func(a []types.Type) bool {
		return len(a) == 2 && isIntScalar(a[0]) && isIntScalar(a[1]) && a[1].R.Lo >= 0 && !a[1].R.IsBot()
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IInt, powR(a[0].R, a[1].R))
	})
	reg(".^", "real scalar elementwise power", func(a []types.Type) bool {
		return len(a) == 2 && isRealScalar(a[0]) && isRealScalar(a[1]) &&
			((a[0].R.Lo >= 0 && !a[0].R.IsBot()) || isIntScalar(a[1]))
	}, func(a []types.Type) types.Type {
		return types.ScalarOf(types.IReal, powR(a[0].R, a[1].R))
	})
	reg(".^", "elementwise real power", func(a []types.Type) bool {
		return len(a) == 2 && types.LeqI(a[0].I, types.IReal) && types.LeqI(a[1].I, types.IReal) &&
			((a[0].R.Lo >= 0 && !a[0].R.IsBot()) || (intLike(a[1]) && a[1].R.Lo >= 0 && !a[1].R.IsBot()))
	}, func(a []types.Type) types.Type {
		minS, maxS := elemShape(a[0], a[1])
		return types.Type{I: types.IReal, MinShape: minS, MaxShape: maxS, R: powR(numericRange(a[0]), numericRange(a[1]))}
	})
	reg(".^", "elementwise power (complex possible)", nArgs(2), func(a []types.Type) types.Type {
		minS, maxS := elemShape(a[0], a[1])
		return types.Type{I: types.ICplx, MinShape: minS, MaxShape: maxS, R: types.RangeTop}
	})

	// ---- relational / logical ----------------------------------------------
	for _, name := range []string{"==", "~=", "<", "<=", ">", ">="} {
		reg(name, "scalar compare", func(a []types.Type) bool {
			return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar()
		}, func(a []types.Type) types.Type {
			return boolResult(types.ScalarShape, types.ScalarShape)
		})
		reg(name, "elementwise compare", nArgs(2), func(a []types.Type) types.Type {
			minS, maxS := elemShape(a[0], a[1])
			return boolResult(minS, maxS)
		})
	}
	for _, name := range []string{"&", "|"} {
		reg(name, "scalar logical", func(a []types.Type) bool {
			return len(a) == 2 && a[0].IsScalar() && a[1].IsScalar()
		}, func(a []types.Type) types.Type {
			return boolResult(types.ScalarShape, types.ScalarShape)
		})
		reg(name, "elementwise logical", nArgs(2), func(a []types.Type) types.Type {
			minS, maxS := elemShape(a[0], a[1])
			return boolResult(minS, maxS)
		})
	}
	for _, name := range []string{"&&", "||"} {
		reg(name, "short-circuit logical", nArgs(2), func(a []types.Type) types.Type {
			return boolResult(types.ScalarShape, types.ScalarShape)
		})
	}
	reg("case", "switch case match", nArgs(2), func(a []types.Type) types.Type {
		return boolResult(types.ScalarShape, types.ScalarShape)
	})

	// ---- unary ---------------------------------------------------------------
	reg("u-", "negate int scalar", func(a []types.Type) bool { return isIntScalar(a[0]) && !mayBeZero(a[0].R) },
		func(a []types.Type) types.Type { return types.ScalarOf(types.IInt, negR(a[0].R)) })
	reg("u-", "negate real scalar", func(a []types.Type) bool { return isRealScalar(a[0]) },
		func(a []types.Type) types.Type { return types.ScalarOf(types.IReal, negR(a[0].R)) })
	reg("u-", "negate", nArgs(1), func(a []types.Type) types.Type {
		i := arithI(a[0].I, types.IBottom, types.IBool)
		r := types.RangeTop
		if types.LeqI(i, types.IReal) {
			r = negR(numericRange(a[0]))
		}
		return types.Type{I: i, MinShape: a[0].MinShape, MaxShape: a[0].MaxShape, R: r}
	})
	reg("u+", "unary plus", nArgs(1), func(a []types.Type) types.Type {
		t := a[0]
		t.I = arithI(t.I, types.IBottom, types.IBool)
		return t
	})
	reg("u~", "logical not", nArgs(1), func(a []types.Type) types.Type {
		return boolResult(a[0].MinShape, a[0].MaxShape)
	})
	reg("'", "transpose", nArgs(1), func(a []types.Type) types.Type {
		return types.Type{
			I:        a[0].I,
			MinShape: types.Shape{R: a[0].MinShape.C, C: a[0].MinShape.R},
			MaxShape: types.Shape{R: a[0].MaxShape.C, C: a[0].MaxShape.R},
			R:        a[0].R,
		}
	})

	// ---- colon (range) --------------------------------------------------------
	reg(":", "integer scalar range", func(a []types.Type) bool {
		return len(a) == 3 && isIntScalar(a[0]) && isIntScalar(a[1]) && isIntScalar(a[2])
	}, func(a []types.Type) types.Type {
		return rangeResult(a[0], a[1], a[2], types.IInt)
	})
	reg(":", "real scalar range", func(a []types.Type) bool {
		return len(a) == 3 && isRealScalar(a[0]) && isRealScalar(a[1]) && isRealScalar(a[2])
	}, func(a []types.Type) types.Type {
		return rangeResult(a[0], a[1], a[2], types.IReal)
	})
	reg(":", "range (imaginary parts ignored)", nArgs(3), func(a []types.Type) types.Type {
		return types.Type{I: types.IReal, MinShape: types.Shape{R: types.Fin(1), C: types.Fin(0)},
			MaxShape: types.Shape{R: types.Fin(1), C: types.InfExt}, R: types.RangeTop}
	})

	registerBuiltinRules(c)
	return c
}

func intLike(t types.Type) bool { return types.LeqI(t.I, types.IInt) }

// matMulShape types a true matrix product.
func matMulShape(a, b types.Type, floor types.Intrinsic) types.Type {
	i := arithI(a.I, b.I, floor)
	return types.Type{
		I:        i,
		MinShape: types.Shape{R: a.MinShape.R, C: b.MinShape.C},
		MaxShape: types.Shape{R: a.MaxShape.R, C: b.MaxShape.C},
		R:        types.RangeTop,
	}
}

// rangeResult types lo:step:hi.
func rangeResult(lo, step, hi types.Type, i types.Intrinsic) types.Type {
	minC, maxC := types.Fin(0), types.InfExt
	if lv, ok1 := lo.R.IsConst(); ok1 {
		if sv, ok2 := step.R.IsConst(); ok2 {
			if hv, ok3 := hi.R.IsConst(); ok3 && sv != 0 {
				n := int(math.Floor((hv-lv)/sv+1e-10)) + 1
				if n < 0 {
					n = 0
				}
				minC, maxC = types.Fin(n), types.Fin(n)
			}
		}
	}
	if maxC.IsInf() && !lo.R.IsBot() && !hi.R.IsBot() && !step.R.IsBot() {
		if sv, ok := step.R.IsConst(); ok && sv == 1 && !math.IsInf(hi.R.Hi, 1) && !math.IsInf(lo.R.Lo, -1) {
			n := int(hi.R.Hi-lo.R.Lo) + 1
			if n < 0 {
				n = 0
			}
			maxC = types.Fin(n)
		}
	}
	r := types.JoinR(numericRange(lo), numericRange(hi))
	return types.Type{
		I:        i,
		MinShape: types.Shape{R: types.Fin(1), C: minC},
		MaxShape: types.Shape{R: types.Fin(1), C: maxC},
		R:        r,
	}
}
