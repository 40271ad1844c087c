package builtins

import (
	"math"
	"math/cmplx"

	"repro/internal/mat"
)

func sqrtNeg2LogOverS(s float64) float64 {
	return math.Sqrt(-2 * math.Log(s) / s)
}

// mapReal applies f elementwise to a real-ish value; complex inputs go
// through fc. When fc is nil, complex inputs take their absolute values
// first (not used by any registered builtin; kept nil-safe).
func mapElem(a *mat.Value, f func(float64) float64, fc func(complex128) complex128) (*mat.Value, error) {
	n := a.Numel()
	if a.Kind() == mat.Complex {
		if fc == nil {
			return nil, mat.Errorf("complex argument not supported")
		}
		out := mat.NewKind(mat.Complex, a.Rows(), a.Cols())
		re, im := out.Re(), out.Im()
		for i := 0; i < n; i++ {
			z := fc(a.ComplexAt(i))
			re[i] = real(z)
			im[i] = imag(z)
		}
		return out.Demote(), nil
	}
	out := mat.New(a.Rows(), a.Cols())
	re := out.Re()
	src := a.Re()
	for i := 0; i < n; i++ {
		re[i] = f(src[i])
	}
	return out, nil
}

// ScalarMathFunc returns the scalar (float64) implementation of a
// one-argument math builtin, used by the code generator to inline
// elementary math functions on typed scalars. ok is false when the name
// is not an inlinable real scalar function.
func ScalarMathFunc(name string) (func(float64) float64, bool) {
	f, ok := scalarMath[name]
	return f, ok
}

var scalarMath = map[string]func(float64) float64{
	"abs":   math.Abs,
	"sqrt":  math.Sqrt, // only inlined when range analysis proves x >= 0
	"exp":   math.Exp,
	"log":   math.Log,
	"log2":  math.Log2,
	"log10": math.Log10,
	"sin":   math.Sin,
	"cos":   math.Cos,
	"tan":   math.Tan,
	"asin":  math.Asin,
	"acos":  math.Acos,
	"atan":  math.Atan,
	"sinh":  math.Sinh,
	"cosh":  math.Cosh,
	"tanh":  math.Tanh,
	"floor": math.Floor,
	"ceil":  math.Ceil,
	"round": func(x float64) float64 { return math.Floor(x + 0.5) },
	"fix":   math.Trunc,
	"sign": func(x float64) float64 {
		if x > 0 {
			return 1
		}
		if x < 0 {
			return -1
		}
		return x // preserves ±0 and NaN behaviour
	},
}

func registerUnaryMath(name string, f func(float64) float64, fc func(complex128) complex128) {
	register(name, 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		v, err := mapElem(args[0], f, fc)
		if err != nil {
			return nil, mat.Errorf("%s: %s", name, err)
		}
		return []*mat.Value{v}, nil
	})
}

func init() {
	registerUnaryMath("exp", math.Exp, cmplx.Exp)
	registerUnaryMath("log", math.Log, cmplx.Log)
	registerUnaryMath("log2", math.Log2, func(z complex128) complex128 { return cmplx.Log(z) / complex(math.Ln2, 0) })
	registerUnaryMath("log10", math.Log10, cmplx.Log10)
	registerUnaryMath("sin", math.Sin, cmplx.Sin)
	registerUnaryMath("cos", math.Cos, cmplx.Cos)
	registerUnaryMath("tan", math.Tan, cmplx.Tan)
	registerUnaryMath("asin", math.Asin, cmplx.Asin)
	registerUnaryMath("acos", math.Acos, cmplx.Acos)
	registerUnaryMath("atan", math.Atan, cmplx.Atan)
	registerUnaryMath("sinh", math.Sinh, cmplx.Sinh)
	registerUnaryMath("cosh", math.Cosh, cmplx.Cosh)
	registerUnaryMath("tanh", math.Tanh, cmplx.Tanh)
	registerUnaryMath("floor", math.Floor, nil)
	registerUnaryMath("ceil", math.Ceil, nil)
	registerUnaryMath("round", scalarMath["round"], nil)
	registerUnaryMath("fix", math.Trunc, nil)
	registerUnaryMath("sign", scalarMath["sign"], func(z complex128) complex128 {
		if z == 0 {
			return 0
		}
		return z / complex(cmplx.Abs(z), 0)
	})

	// sqrt: negative real input promotes to complex, as in MATLAB.
	register("sqrt", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Kind() != mat.Complex {
			neg := false
			for _, x := range a.Re() {
				if x < 0 {
					neg = true
					break
				}
			}
			if !neg {
				v, err := mapElem(a, math.Sqrt, nil)
				return []*mat.Value{v}, err
			}
			a = a.ToComplex()
		}
		v, err := mapElem(a, nil, cmplx.Sqrt)
		return []*mat.Value{v}, err
	})

	// abs: complex input yields real magnitudes.
	register("abs", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		out := mat.New(a.Rows(), a.Cols())
		re := out.Re()
		n := a.Numel()
		if a.Kind() == mat.Complex {
			for i := 0; i < n; i++ {
				re[i] = cmplx.Abs(a.ComplexAt(i))
			}
		} else {
			src := a.Re()
			for i := 0; i < n; i++ {
				re[i] = math.Abs(src[i])
			}
		}
		return []*mat.Value{out}, nil
	})

	register("atan2", 2, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return binMap(args[0], args[1], math.Atan2)
	})

	register("mod", 2, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return binMap(args[0], args[1], Mod)
	})
	register("rem", 2, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return binMap(args[0], args[1], Rem)
	})

	register("real", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		out := mat.New(a.Rows(), a.Cols())
		copy(out.Re(), a.Re())
		return []*mat.Value{out}, nil
	})
	register("imag", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		out := mat.New(a.Rows(), a.Cols())
		if im := a.Im(); im != nil {
			copy(out.Re(), im)
		}
		return []*mat.Value{out}, nil
	})
	register("conj", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Kind() != mat.Complex {
			return []*mat.Value{a.Clone()}, nil
		}
		out := mat.NewKind(mat.Complex, a.Rows(), a.Cols())
		copy(out.Re(), a.Re())
		im := out.Im()
		for i, x := range a.Im() {
			im[i] = -x
		}
		return []*mat.Value{out}, nil
	})
	register("angle", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		out := mat.New(a.Rows(), a.Cols())
		re := out.Re()
		for i := range re {
			re[i] = cmplx.Phase(a.ComplexAt(i))
		}
		return []*mat.Value{out}, nil
	})
}

// Mod is MATLAB's mod (sign follows divisor).
func Mod(x, y float64) float64 {
	if y == 0 {
		return x
	}
	r := math.Mod(x, y)
	if r != 0 && (r < 0) != (y < 0) {
		r += y
	}
	return r
}

// Rem is MATLAB's rem (sign follows dividend).
func Rem(x, y float64) float64 {
	if y == 0 {
		return math.NaN()
	}
	return math.Mod(x, y)
}

func bval(v *mat.Value, i int) float64 {
	if v.IsScalar() {
		return v.Re()[0]
	}
	return v.Re()[i]
}

func binMap(a, b *mat.Value, f func(x, y float64) float64) ([]*mat.Value, error) {
	rows, cols := a.Rows(), a.Cols()
	if a.IsScalar() {
		rows, cols = b.Rows(), b.Cols()
	} else if !b.IsScalar() && (b.Rows() != rows || b.Cols() != cols) {
		return nil, mat.Errorf("matrix dimensions must agree")
	}
	out := mat.New(rows, cols)
	re := out.Re()
	for i := range re {
		re[i] = f(bval(a, i), bval(b, i))
	}
	return []*mat.Value{out}, nil
}
