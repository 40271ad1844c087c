package builtins

import (
	"math"

	"repro/internal/mat"
)

// realScalar returns the number held by an argument that has to be a
// single real value: a size, a count, a dimension, an endpoint. Calls
// reach the builtins from the interpreter and from compiled code alike,
// so a malformed argument fails here, the same way in every tier.
func realScalar(name, what string, v *mat.Value) (float64, error) {
	if !v.IsScalar() || v.Kind() == mat.Complex || v.Kind() == mat.Char {
		return 0, mat.Errorf("%s: %s must be a real scalar", name, what)
	}
	return v.MustScalar(), nil
}

// sizeArg decodes one size argument.
func sizeArg(name string, v *mat.Value) (int, error) {
	x, err := realScalar(name, "size argument", v)
	if err != nil {
		return 0, err
	}
	return nonNegInt(name, x)
}

// dims decodes the (n) / (m,n) argument conventions of the constructors.
func dims(name string, args []*mat.Value) (int, int, error) {
	switch len(args) {
	case 0:
		return 1, 1, nil
	case 1:
		a := args[0]
		if a.Numel() == 2 && !a.IsSparse() && a.Kind() != mat.Complex && a.Kind() != mat.Char {
			r, err := nonNegInt(name, a.Re()[0])
			if err != nil {
				return 0, 0, err
			}
			c, err := nonNegInt(name, a.Re()[1])
			if err != nil {
				return 0, 0, err
			}
			return r, c, nil
		}
		if !a.IsScalar() {
			return 0, 0, mat.Errorf("%s: size argument must be scalar or a 2-element vector", name)
		}
		n, err := sizeArg(name, a)
		return n, n, err
	case 2:
		r, err := sizeArg(name, args[0])
		if err != nil {
			return 0, 0, err
		}
		c, err := sizeArg(name, args[1])
		return r, c, err
	}
	return 0, 0, mat.Errorf("%s: too many size arguments", name)
}

func nonNegInt(name string, x float64) (int, error) {
	// MATLAB warns on non-integer sizes and rounds; we round silently,
	// matching the tolerant behaviour the paper's speculator relies on.
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0, mat.Errorf("%s: invalid size %g", name, x)
	}
	n := int(math.Floor(x + 0.5))
	if n < 0 {
		n = 0
	}
	return n, nil
}

func init() {
	register("zeros", 0, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		r, c, err := dims("zeros", args)
		if err != nil {
			return nil, err
		}
		return []*mat.Value{mat.New(r, c)}, nil
	})
	register("ones", 0, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		r, c, err := dims("ones", args)
		if err != nil {
			return nil, err
		}
		v := mat.New(r, c)
		re := v.Re()
		for i := range re {
			re[i] = 1
		}
		return []*mat.Value{v}, nil
	})
	register("eye", 0, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		r, c, err := dims("eye", args)
		if err != nil {
			return nil, err
		}
		v := mat.New(r, c)
		for i := 0; i < r && i < c; i++ {
			v.SetAt(i, i, 1)
		}
		return []*mat.Value{v}, nil
	})
	register("rand", 0, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		r, c, err := dims("rand", args)
		if err != nil {
			return nil, err
		}
		v := mat.New(r, c)
		ctx.RNG.Fill(v.Re())
		return []*mat.Value{v}, nil
	})
	register("randn", 0, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		r, c, err := dims("randn", args)
		if err != nil {
			return nil, err
		}
		v := mat.New(r, c)
		ctx.RNG.FillNormal(v.Re())
		return []*mat.Value{v}, nil
	})

	register("size", 1, 2, 2, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if len(args) == 2 {
			d, err := realScalar("size", "dimension", args[1])
			if err != nil {
				return nil, err
			}
			switch d {
			case 1:
				return []*mat.Value{mat.IntScalar(float64(a.Rows()))}, nil
			case 2:
				return []*mat.Value{mat.IntScalar(float64(a.Cols()))}, nil
			default:
				return []*mat.Value{mat.IntScalar(1)}, nil
			}
		}
		if nout >= 2 {
			return []*mat.Value{
				mat.IntScalar(float64(a.Rows())),
				mat.IntScalar(float64(a.Cols())),
			}, nil
		}
		v := mat.New(1, 2)
		v.Re()[0] = float64(a.Rows())
		v.Re()[1] = float64(a.Cols())
		return []*mat.Value{v}, nil
	})
	register("length", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		n := a.Rows()
		if a.Cols() > n {
			n = a.Cols()
		}
		if a.IsEmpty() {
			n = 0
		}
		return []*mat.Value{mat.IntScalar(float64(n))}, nil
	})
	register("numel", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return []*mat.Value{mat.IntScalar(float64(args[0].Numel()))}, nil
	})
	register("isempty", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return []*mat.Value{mat.BoolScalar(args[0].IsEmpty())}, nil
	})
	register("isreal", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return []*mat.Value{mat.BoolScalar(args[0].Kind() != mat.Complex)}, nil
	})
	register("isscalar", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return []*mat.Value{mat.BoolScalar(args[0].IsScalar())}, nil
	})

	register("linspace", 2, 3, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a, err := realScalar("linspace", "endpoint", args[0])
		if err != nil {
			return nil, err
		}
		b, err := realScalar("linspace", "endpoint", args[1])
		if err != nil {
			return nil, err
		}
		n := 100
		if len(args) == 3 {
			if n, err = sizeArg("linspace", args[2]); err != nil {
				return nil, err
			}
		}
		v := mat.New(1, n)
		re := v.Re()
		if n == 1 {
			re[0] = b
		} else {
			for i := 0; i < n; i++ {
				re[i] = a + (b-a)*float64(i)/float64(n-1)
			}
		}
		return []*mat.Value{v}, nil
	})

	register("reshape", 3, 3, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		r, err := sizeArg("reshape", args[1])
		if err != nil {
			return nil, err
		}
		c, err := sizeArg("reshape", args[2])
		if err != nil {
			return nil, err
		}
		if r*c != a.Numel() {
			return nil, mat.Errorf("reshape: element counts differ (%d vs %d)", r*c, a.Numel())
		}
		out := mat.NewKind(a.Kind(), r, c)
		copy(out.Re(), a.Re())
		if im := a.Im(); im != nil {
			copy(out.Im(), im)
		}
		return []*mat.Value{out}, nil
	})

	register("repmat", 3, 3, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		m, err := sizeArg("repmat", args[1])
		if err != nil {
			return nil, err
		}
		n, err := sizeArg("repmat", args[2])
		if err != nil {
			return nil, err
		}
		out := mat.NewKind(a.Kind(), a.Rows()*m, a.Cols()*n)
		for bc := 0; bc < n; bc++ {
			for br := 0; br < m; br++ {
				for c := 0; c < a.Cols(); c++ {
					for r := 0; r < a.Rows(); r++ {
						out.SetAt(br*a.Rows()+r, bc*a.Cols()+c, a.At(r, c))
					}
				}
			}
		}
		return []*mat.Value{out}, nil
	})

	register("diag", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.IsVector() && !a.IsScalar() {
			d, err := a.Dense() // sparse vector: payload read below
			if err != nil {
				return nil, err
			}
			n := d.Numel()
			out := mat.New(n, n)
			for i := 0; i < n; i++ {
				out.SetAt(i, i, d.Re()[i])
			}
			return []*mat.Value{out}, nil
		}
		if a.IsSparse() {
			// O(nnz) extraction; avoids densifying huge operands (cgopt's
			// Jacobi preconditioner calls diag(A) at n=1e6).
			return []*mat.Value{mat.SparseDiag(a)}, nil
		}
		n := a.Rows()
		if a.Cols() < n {
			n = a.Cols()
		}
		out := mat.New(n, 1)
		for i := 0; i < n; i++ {
			out.Re()[i] = a.At(i, i)
		}
		return []*mat.Value{out}, nil
	})

	register("tril", 1, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return triPart(args, true)
	})
	register("triu", 1, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		return triPart(args, false)
	})

	register("find", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		var idx []float64
		n := a.Numel()
		for i := 0; i < n; i++ {
			if a.Re()[i] != 0 || (a.Im() != nil && a.Im()[i] != 0) {
				idx = append(idx, float64(i+1))
			}
		}
		rows, cols := len(idx), 1
		if a.Rows() == 1 && a.Cols() != 1 {
			rows, cols = 1, len(idx)
		}
		out := mat.NewKind(mat.Int, rows, cols)
		copy(out.Re(), idx)
		return []*mat.Value{out}, nil
	})

	register("sort", 1, 1, 2, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if !a.IsVector() && !a.IsEmpty() && !a.IsScalar() {
			return nil, mat.Errorf("sort: only vectors are supported")
		}
		n := a.Numel()
		type pair struct {
			v float64
			i int
		}
		ps := make([]pair, n)
		for i := 0; i < n; i++ {
			ps[i] = pair{a.Re()[i], i}
		}
		// insertion sort: stable, no extra imports
		for i := 1; i < n; i++ {
			p := ps[i]
			j := i - 1
			for j >= 0 && ps[j].v > p.v {
				ps[j+1] = ps[j]
				j--
			}
			ps[j+1] = p
		}
		out := mat.NewKind(a.Kind(), a.Rows(), a.Cols())
		idx := mat.NewKind(mat.Int, a.Rows(), a.Cols())
		for i, p := range ps {
			out.Re()[i] = p.v
			idx.Re()[i] = float64(p.i + 1)
		}
		return []*mat.Value{out, idx}, nil
	})
}

func triPart(args []*mat.Value, lower bool) ([]*mat.Value, error) {
	a := args[0]
	k := 0
	if len(args) == 2 {
		name := "triu"
		if lower {
			name = "tril"
		}
		d, err := realScalar(name, "diagonal", args[1])
		if err != nil {
			return nil, err
		}
		k = int(d)
	}
	out := mat.NewKind(a.Kind(), a.Rows(), a.Cols())
	re, im := out.Re(), out.Im()
	for c := 0; c < a.Cols(); c++ {
		for r := 0; r < a.Rows(); r++ {
			keep := false
			if lower {
				keep = c-r <= k
			} else {
				keep = c-r >= k
			}
			if keep {
				re[c*a.Rows()+r] = a.At(r, c)
				if im != nil {
					im[c*a.Rows()+r] = a.ImAt(r, c)
				}
			}
		}
	}
	return []*mat.Value{out}, nil
}
