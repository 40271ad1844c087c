package builtins

import (
	"math"

	"repro/internal/blas"
	"repro/internal/linalg"
	"repro/internal/mat"
	"repro/internal/sparse"
)

func init() {
	register("dot", 2, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a, b := args[0], args[1]
		if a.Numel() != b.Numel() {
			return nil, mat.Errorf("dot: vectors must be the same length")
		}
		s := blas.Ddot(a.Numel(), a.Re(), 1, b.Re(), 1)
		return []*mat.Value{mat.Scalar(s)}, nil
	})

	register("norm", 1, 2, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		p := 2.0
		fro := false
		if len(args) == 2 {
			if args[1].Kind() == mat.Char {
				if args[1].Text() == "fro" {
					fro = true
				} else {
					return nil, mat.Errorf("norm: unknown norm %q", args[1].Text())
				}
			} else {
				var err error
				if p, err = realScalar("norm", "p", args[1]); err != nil {
					return nil, err
				}
			}
		}
		if a.IsVector() || a.IsEmpty() || fro {
			switch {
			case fro || p == 2:
				return []*mat.Value{mat.Scalar(blas.Dnrm2(a.Numel(), a.Re(), 1))}, nil
			case p == 1:
				var s float64
				for _, x := range a.Re() {
					s += math.Abs(x)
				}
				return []*mat.Value{mat.Scalar(s)}, nil
			case math.IsInf(p, 1):
				var s float64
				for _, x := range a.Re() {
					if v := math.Abs(x); v > s {
						s = v
					}
				}
				return []*mat.Value{mat.Scalar(s)}, nil
			default:
				var s float64
				for _, x := range a.Re() {
					s += math.Pow(math.Abs(x), p)
				}
				return []*mat.Value{mat.Scalar(math.Pow(s, 1/p))}, nil
			}
		}
		// Matrix norms: 1 (max column sum), inf (max row sum),
		// 2 (largest singular value via eig of AᵀA).
		switch {
		case p == 1:
			var best float64
			for c := 0; c < a.Cols(); c++ {
				var s float64
				for r := 0; r < a.Rows(); r++ {
					s += math.Abs(a.At(r, c))
				}
				if s > best {
					best = s
				}
			}
			return []*mat.Value{mat.Scalar(best)}, nil
		case math.IsInf(p, 1):
			var best float64
			for r := 0; r < a.Rows(); r++ {
				var s float64
				for c := 0; c < a.Cols(); c++ {
					s += math.Abs(a.At(r, c))
				}
				if s > best {
					best = s
				}
			}
			return []*mat.Value{mat.Scalar(best)}, nil
		case p == 2:
			// AᵀA is symmetric positive semidefinite; its largest
			// eigenvalue is σ_max².
			m, n := a.Rows(), a.Cols()
			ata := make([]float64, n*n)
			blas.Dgemm(n, n, m, 1, transposeOf(a), n, a.Re(), m, 0, ata, n)
			re, _ := linalg.Eig(ata, n)
			var best float64
			for _, x := range re {
				if x > best {
					best = x
				}
			}
			return []*mat.Value{mat.Scalar(math.Sqrt(best))}, nil
		}
		return nil, mat.Errorf("norm: unsupported matrix norm %g", p)
	})

	register("eig", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Rows() != a.Cols() {
			return nil, mat.Errorf("eig: matrix must be square")
		}
		if a.Kind() == mat.Complex {
			return nil, mat.Errorf("eig: complex matrices are not supported")
		}
		n := a.Rows()
		re, im := linalg.Eig(a.Re(), n)
		anyImag := false
		for _, x := range im {
			if x != 0 {
				anyImag = true
				break
			}
		}
		var out *mat.Value
		if anyImag {
			out = mat.NewKind(mat.Complex, n, 1)
			copy(out.Re(), re)
			copy(out.Im(), im)
		} else {
			out = mat.New(n, 1)
			copy(out.Re(), re)
		}
		return []*mat.Value{out}, nil
	})

	register("inv", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Rows() != a.Cols() {
			return nil, mat.Errorf("inv: matrix must be square")
		}
		x, err := linalg.Inv(a.Re(), a.Rows())
		if err != nil {
			return nil, mat.Errorf("inv: %v", err)
		}
		out := mat.New(a.Rows(), a.Cols())
		copy(out.Re(), x)
		return []*mat.Value{out}, nil
	})

	register("det", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Rows() != a.Cols() {
			return nil, mat.Errorf("det: matrix must be square")
		}
		return []*mat.Value{mat.Scalar(linalg.Det(a.Re(), a.Rows()))}, nil
	})

	register("chol", 1, 1, 1, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Rows() != a.Cols() {
			return nil, mat.Errorf("chol: matrix must be square")
		}
		r, err := linalg.Chol(a.Re(), a.Rows())
		if err != nil {
			return nil, mat.Errorf("chol: %v", err)
		}
		out := mat.New(a.Rows(), a.Cols())
		// linalg.Chol returns R with A = RᵀR stored row-lower; emit the
		// upper-triangular MATLAB convention.
		n := a.Rows()
		for j := 0; j < n; j++ {
			for i := 0; i <= j; i++ {
				out.SetAt(i, j, r[j*n+i])
			}
		}
		return []*mat.Value{out}, nil
	})

	register("lu", 1, 1, 3, func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
		a := args[0]
		if a.Rows() != a.Cols() {
			return nil, mat.Errorf("lu: matrix must be square")
		}
		n := a.Rows()
		f := make([]float64, n*n)
		copy(f, a.Re())
		piv, _ := linalg.LU(f, n)
		l := mat.New(n, n)
		u := mat.New(n, n)
		for j := 0; j < n; j++ {
			for i := 0; i < n; i++ {
				if i > j {
					l.SetAt(i, j, f[j*n+i])
				} else {
					u.SetAt(i, j, f[j*n+i])
					if i == j {
						l.SetAt(i, i, 1)
					}
				}
			}
		}
		p := mat.New(n, n)
		perm := make([]int, n)
		for i := range perm {
			perm[i] = i
		}
		for k := 0; k < n; k++ {
			if piv[k] != k {
				perm[k], perm[piv[k]] = perm[piv[k]], perm[k]
			}
		}
		for i, pi := range perm {
			p.SetAt(i, pi, 1)
		}
		return []*mat.Value{l, u, p}, nil
	})
}

// transposeOf returns row-major view data (i.e., Aᵀ in column-major).
func transposeOf(a *mat.Value) []float64 {
	m, n := a.Rows(), a.Cols()
	out := make([]float64, m*n)
	for c := 0; c < n; c++ {
		for r := 0; r < m; r++ {
			out[r*n+c] = a.At(r, c)
		}
	}
	return out
}

// MLDivide implements the backslash operator A\b using LU with partial
// pivoting (square systems) — exposed here because both the interpreter
// and compiled code route '\' through it.
func MLDivide(a, b *mat.Value) (*mat.Value, error) {
	if a.IsScalar() {
		return mat.ElemDiv(b, a)
	}
	if a.Kind() == mat.Complex || b.Kind() == mat.Complex {
		return nil, mat.Errorf("mldivide: complex systems are not supported")
	}
	if a.Rows() != a.Cols() {
		return nil, mat.Errorf("mldivide: only square systems are supported")
	}
	if b.Rows() != a.Rows() {
		return nil, mat.Errorf("mldivide: dimension mismatch (%dx%d \\ %dx%d)", a.Rows(), a.Cols(), b.Rows(), b.Cols())
	}
	if b.IsSparse() {
		d, err := b.Dense() // the solvers read b's column-major payload
		if err != nil {
			return nil, err
		}
		b = d
	}
	if a.IsSparse() {
		if mat.SparseTriangularity(a) != sparse.General {
			// Structurally triangular sparse systems take the parallel
			// level-scheduled substitution kernel; the SOR-style M\r
			// preconditioner solves in the iterative tier land here.
			return mat.SparseTriSolve(a, b)
		}
		d, err := a.Dense() // general sparse system: densify, then LU
		if err != nil {
			return nil, err
		}
		a = d
	}
	x, err := linalg.Solve(a.Re(), a.Rows(), b.Re(), b.Cols())
	if err != nil {
		return nil, mat.Errorf("mldivide: %v", err)
	}
	out := mat.New(a.Rows(), b.Cols())
	copy(out.Re(), x)
	return out, nil
}
