package builtins

import (
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/mat"
)

func sqrtNeg2LogOverS(s float64) float64 {
	return math.Sqrt(-2 * math.Log(s) / s)
}

// mapElem applies f elementwise to a real-ish value; complex inputs go
// through fc, and are an error when fc is nil.
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

// ElemFn is an elementary math function of one argument (§2.6.1: MaJIC
// "inlines … elementary math functions"): its real form, its complex
// form (nil when the builtin rejects a complex argument), whether a C
// register may hold its complex argument and result, i.e. whether
// compiled code may apply Complex to a complex scalar and get the
// builtin's answer, and the real arguments outside its real domain.
type ElemFn struct {
	Real    func(float64) float64
	Complex func(complex128) complex128
	InC     bool
	// Promotes reports a real argument whose result is complex, as
	// MATLAB's sqrt(-1) is; nil when every real result is real. The
	// builtin promotes a real array holding one to complex.
	Promotes func(float64) bool
}

// At applies f to a C register's value as the builtin does: the real
// form where the value is a real (imaginary part +0) in f's real domain,
// the complex form otherwise.
func (f ElemFn) At(z complex128) complex128 {
	if f.Promotes != nil && math.Float64bits(imag(z)) == 0 && !f.Promotes(real(z)) {
		return complex(f.Real(real(z)), 0)
	}
	return f.Complex(z)
}

func negative(x float64) bool    { return x < 0 }
func outsideUnit(x float64) bool { return x < -1 || x > 1 }

// fromBelow gives asin and acos of a real x > 1, which lies on their
// branch cut, MATLAB's value: the one from below the cut, at x − 0i
// (asin(2) is 1.5708 − 1.3170i). Below −1 MATLAB's is the one x + 0i
// gives.
func fromBelow(f func(complex128) complex128) func(complex128) complex128 {
	return func(z complex128) complex128 {
		if math.Float64bits(imag(z)) == 0 && real(z) > 1 {
			z = complex(real(z), math.Copysign(0, -1))
		}
		return f(z)
	}
}

// Elementary returns the elementary function the builtin name is, if it
// is one. The code generator inlines these on typed scalars and fuses
// them into elementwise kernels, and the VM resolves a program's math
// functions here.
func Elementary(name string) (ElemFn, bool) {
	f, ok := elementary[name]
	return f, ok
}

// elementary is the one table of elementary functions. init registers
// each as a builtin from it, except abs, whose result changes kind (abs
// of a complex value is real). The real form runs only where inference
// proves the result real, or where Promotes clears the argument.
var elementary = map[string]ElemFn{
	"abs":   {Real: math.Abs},
	"sqrt":  {math.Sqrt, cmplx.Sqrt, true, negative},
	"exp":   {math.Exp, cmplx.Exp, true, nil},
	"log":   {math.Log, cmplx.Log, true, negative},
	"log2":  {math.Log2, func(z complex128) complex128 { return cmplx.Log(z) / complex(math.Ln2, 0) }, false, negative},
	"log10": {math.Log10, cmplx.Log10, false, negative},
	"sin":   {math.Sin, cmplx.Sin, true, nil},
	"cos":   {math.Cos, cmplx.Cos, true, nil},
	"tan":   {math.Tan, cmplx.Tan, true, nil},
	"asin":  {math.Asin, fromBelow(cmplx.Asin), false, outsideUnit},
	"acos":  {math.Acos, fromBelow(cmplx.Acos), false, outsideUnit},
	"atan":  {math.Atan, cmplx.Atan, false, nil},
	"sinh":  {math.Sinh, cmplx.Sinh, true, nil},
	"cosh":  {math.Cosh, cmplx.Cosh, true, nil},
	"tanh":  {math.Tanh, cmplx.Tanh, true, nil},
	"floor": {Real: math.Floor},
	"ceil":  {Real: math.Ceil},
	"round": {Real: func(x float64) float64 { return math.Floor(x + 0.5) }},
	"fix":   {Real: math.Trunc},
	"sign": {Real: func(x float64) float64 {
		if x > 0 {
			return 1
		}
		if x < 0 {
			return -1
		}
		return x // preserves ±0 and NaN behaviour
	}, Complex: func(z complex128) complex128 {
		if z == 0 {
			return 0
		}
		return z / complex(cmplx.Abs(z), 0)
	}},
}

func registerUnaryMath(name string, f ElemFn) {
	register(name, 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		// A real argument outside the real domain promotes to complex,
		// as in MATLAB.
		if a.Kind() != mat.Complex && f.Promotes != nil && slices.ContainsFunc(a.Re(), f.Promotes) {
			a = a.ToComplex()
		}
		v, err := mapElem(a, f.Real, f.Complex)
		if err != nil {
			return nil, mat.Errorf("%s: %s", name, err)
		}
		return []*mat.Value{v}, nil
	})
}

func init() {
	for name, f := range elementary {
		if name != "abs" {
			registerUnaryMath(name, f)
		}
	}

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
