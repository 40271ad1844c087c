package builtins

import (
	"math"

	"repro/internal/mat"
)

// Sparse constructors and queries. These builtins are listed in
// sparseAware, so their implementations see sparse arguments as-is and
// must densify any argument whose payload they read.

func init() {
	register("sparse", 1, 6, 1, sparseImpl)
	register("full", 1, 1, 1, fullImpl)
	register("speye", 0, 2, 1, speyeImpl)
	register("spdiags", 4, 4, 1, spdiagsImpl)
	register("nnz", 1, 1, 1, nnzImpl)
	register("issparse", 1, 1, 1, issparseImpl)
}

// denseArgs replaces sparse arguments with densified copies so the
// payload-reading constructor bodies below stay representation-free.
func denseArgs(args []*mat.Value) ([]*mat.Value, error) {
	var copied []*mat.Value
	for i, a := range args {
		if a != nil && a.IsSparse() {
			d, err := a.Dense()
			if err != nil {
				return nil, err
			}
			if copied == nil {
				copied = append([]*mat.Value(nil), args...)
			}
			copied[i] = d
		}
	}
	if copied != nil {
		return copied, nil
	}
	return args, nil
}

func sparseImpl(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
	switch len(args) {
	case 1:
		s, err := args[0].Sparse()
		if err != nil {
			return nil, err
		}
		return []*mat.Value{unaliased(s, args[0])}, nil
	case 2:
		args, err := denseArgs(args)
		if err != nil {
			return nil, err
		}
		m, n, err := dims("sparse", args)
		if err != nil {
			return nil, err
		}
		return []*mat.Value{mat.SparseZeros(m, n)}, nil
	case 3, 5, 6:
		// sparse(i, j, s [, m, n [, nzmax]]) — 1-based subscript triplets;
		// a trailing nzmax is accepted and ignored (we size to nnz).
		args, err := denseArgs(args)
		if err != nil {
			return nil, err
		}
		ri, ci, vs, err := tripletArgs(args[0], args[1], args[2])
		if err != nil {
			return nil, err
		}
		var m, n int
		if len(args) >= 5 {
			if m, err = sizeArg("sparse", args[3]); err != nil {
				return nil, err
			}
			if n, err = sizeArg("sparse", args[4]); err != nil {
				return nil, err
			}
		} else {
			for _, r := range ri {
				if r+1 > m {
					m = r + 1
				}
			}
			for _, c := range ci {
				if c+1 > n {
					n = c + 1
				}
			}
		}
		for k := range ri {
			if ri[k] >= m || ci[k] >= n {
				return nil, mat.Errorf("sparse: index (%d,%d) out of bounds for %dx%d", ri[k]+1, ci[k]+1, m, n)
			}
		}
		s, err := mat.SparseFromTriplets(m, n, ri, ci, vs)
		if err != nil {
			return nil, err
		}
		return []*mat.Value{s}, nil
	}
	return nil, mat.Errorf("sparse: unsupported argument count %d", len(args))
}

// tripletArgs decodes the (i, j, s) triplet vectors with MATLAB's
// scalar-broadcast convention, converting subscripts to 0-based.
func tripletArgs(iv, jv, sv *mat.Value) (ri, ci []int, vs []float64, err error) {
	for _, v := range []*mat.Value{iv, jv} {
		if v.Kind() == mat.Complex || v.Kind() == mat.Char {
			return nil, nil, nil, mat.Errorf("sparse: subscripts must be real")
		}
	}
	if sv.Kind() == mat.Complex || sv.Kind() == mat.Char {
		return nil, nil, nil, mat.Errorf("sparse: %s values are not supported", sv.Kind())
	}
	n := iv.Numel()
	for _, v := range []*mat.Value{jv, sv} {
		if v.Numel() > n {
			n = v.Numel()
		}
	}
	for _, v := range []*mat.Value{iv, jv, sv} {
		if v.Numel() != n && v.Numel() != 1 {
			return nil, nil, nil, mat.Errorf("sparse: vectors must be the same length")
		}
	}
	sub := func(v *mat.Value, k int) (int, error) {
		x := v.Re()[0]
		if v.Numel() != 1 {
			x = v.Re()[k]
		}
		if x != math.Trunc(x) || x < 1 {
			return 0, mat.Errorf("sparse: subscript %g is not a positive integer", x)
		}
		return int(x) - 1, nil
	}
	ri = make([]int, n)
	ci = make([]int, n)
	vs = make([]float64, n)
	for k := 0; k < n; k++ {
		if ri[k], err = sub(iv, k); err != nil {
			return nil, nil, nil, err
		}
		if ci[k], err = sub(jv, k); err != nil {
			return nil, nil, nil, err
		}
		if sv.Numel() == 1 {
			vs[k] = sv.Re()[0]
		} else {
			vs[k] = sv.Re()[k]
		}
	}
	return ri, ci, vs, nil
}

func fullImpl(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
	d, err := args[0].Dense()
	if err != nil {
		return nil, err
	}
	return []*mat.Value{unaliased(d, args[0])}, nil
}

// unaliased is out, or a copy of it when a conversion that had nothing
// to do handed the argument back: a builtin's result is never its
// argument (DESIGN.md §10), or writing through one binding would change
// the other.
func unaliased(out, arg *mat.Value) *mat.Value {
	if out == arg {
		return out.Clone()
	}
	return out
}

func speyeImpl(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
	args, err := denseArgs(args)
	if err != nil {
		return nil, err
	}
	m, n, err := dims("speye", args)
	if err != nil {
		return nil, err
	}
	return []*mat.Value{mat.SparseEye(m, n)}, nil
}

func spdiagsImpl(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
	args, err := denseArgs(args)
	if err != nil {
		return nil, err
	}
	bm, dv := args[0], args[1]
	m, err := sizeArg("spdiags", args[2])
	if err != nil {
		return nil, err
	}
	n, err := sizeArg("spdiags", args[3])
	if err != nil {
		return nil, err
	}
	if bm.Kind() == mat.Complex || bm.Kind() == mat.Char {
		return nil, mat.Errorf("spdiags: %s diagonals are not supported", bm.Kind())
	}
	nd := dv.Numel()
	if bm.Cols() != nd {
		return nil, mat.Errorf("spdiags: B must have one column per diagonal (%d columns, %d offsets)", bm.Cols(), nd)
	}
	want := m
	if n < m {
		want = n
	}
	if bm.Rows() < want {
		return nil, mat.Errorf("spdiags: B has %d rows; need min(m,n)=%d", bm.Rows(), want)
	}
	diags := make([][]float64, nd)
	offsets := make([]int, nd)
	for k := 0; k < nd; k++ {
		off := dv.Re()[k]
		if off != math.Trunc(off) {
			return nil, mat.Errorf("spdiags: diagonal offset %g is not an integer", off)
		}
		offsets[k] = int(off)
		diags[k] = bm.Re()[k*bm.Rows() : k*bm.Rows()+bm.Rows()]
	}
	s, err := mat.SparseFromDiags(m, n, diags, offsets)
	if err != nil {
		return nil, err
	}
	return []*mat.Value{s}, nil
}

func nnzImpl(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
	// MATLAB's nnz counts nonzero VALUES; a sparse matrix may carry
	// explicitly stored zeros (e.g. computed by a merge op), which are
	// excluded here even though NNZ() reports them as stored entries.
	v := args[0]
	if !v.IsSparse() {
		return []*mat.Value{mat.Scalar(float64(v.NNZ()))}, nil
	}
	n := 0
	for _, x := range mat.SparseVals(v) {
		if x != 0 {
			n++
		}
	}
	return []*mat.Value{mat.Scalar(float64(n))}, nil
}

func issparseImpl(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error) {
	return []*mat.Value{mat.BoolScalar(args[0].IsSparse())}, nil
}
