package vm

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/mat"
)

// evalUnOp dispatches the generic unary opcodes.
func evalUnOp(code int32, v *mat.Value) (*mat.Value, error) {
	if v == nil {
		return nil, fmt.Errorf("use of undefined value")
	}
	switch code {
	case 0: // neg
		return mat.Neg(v)
	case 1: // uplus
		return mat.UPlus(v)
	case 2: // not
		return mat.Not(v)
	case 3: // .'
		return mat.DotTranspose(v)
	case 4: // '
		return mat.Transpose(v)
	}
	return nil, fmt.Errorf("unknown unary op %d", code)
}

// decodeSubs resolves boxed subscript registers (colon markers and
// index vectors) into mat.Subscript values.
func decodeSubs(aux []int32, at int, V []*mat.Value) ([]mat.Subscript, error) {
	n := int(aux[at])
	subs := make([]mat.Subscript, n)
	for i := 0; i < n; i++ {
		v := V[aux[at+1+i]]
		if v == nil {
			return nil, fmt.Errorf("undefined subscript")
		}
		if v == colonMarker {
			subs[i] = mat.Subscript{Colon: true}
			continue
		}
		s, err := mat.ResolveSubscript(v)
		if err != nil {
			return nil, err
		}
		s.ShapeRows, s.ShapeCols = v.Rows(), v.Cols()
		subs[i] = s
	}
	return subs, nil
}

func genericIndex(base *mat.Value, aux []int32, at int, V []*mat.Value) (*mat.Value, error) {
	if base == nil {
		return nil, fmt.Errorf("indexing an undefined value")
	}
	subs, err := decodeSubs(aux, at, V)
	if err != nil {
		return nil, err
	}
	switch len(subs) {
	case 0:
		base.MarkShared()
		return base, nil
	case 1:
		return mat.Index1(base, subs[0])
	case 2:
		return mat.Index2(base, subs[0], subs[1])
	}
	return nil, fmt.Errorf("unsupported number of subscripts (%d)", len(subs))
}

func genericAssign(base *mat.Value, aux []int32, at int, V []*mat.Value, rhs *mat.Value) error {
	if rhs == nil {
		return fmt.Errorf("assignment from undefined value")
	}
	subs, err := decodeSubs(aux, at, V)
	if err != nil {
		return err
	}
	switch len(subs) {
	case 1:
		return mat.Assign1(base, subs[0], rhs)
	case 2:
		return mat.Assign2(base, subs[0], subs[1], rhs)
	}
	return fmt.Errorf("unsupported number of subscripts (%d)", len(subs))
}

func genericCat(aux []int32, at int, V []*mat.Value) (*mat.Value, error) {
	nrows := int(aux[at])
	at++
	parts := make([][]*mat.Value, nrows)
	for r := 0; r < nrows; r++ {
		ncols := int(aux[at])
		at++
		row := make([]*mat.Value, ncols)
		for c := 0; c < ncols; c++ {
			v := V[aux[at]]
			at++
			if v == nil {
				return nil, fmt.Errorf("undefined value in matrix literal")
			}
			row[c] = v
		}
		parts[r] = row
	}
	return mat.Cat(parts)
}

func genericBuiltin(c *Compiled, ctx *builtins.Context, aux []int32, at int, V []*mat.Value) error {
	b := c.builtins[aux[at]]
	nout := int(aux[at+1])
	dsts := aux[at+2 : at+2+nout]
	nargs := int(aux[at+2+nout])
	argRegs := aux[at+3+nout : at+3+nout+nargs]
	args := make([]*mat.Value, nargs)
	for i, r := range argRegs {
		v := V[r]
		if v == nil {
			return fmt.Errorf("%s: undefined argument", b.Name)
		}
		args[i] = v
	}
	outs, err := builtins.Call(ctx, b, args, nout)
	if err != nil {
		return err
	}
	for i, d := range dsts {
		if i < len(outs) {
			V[d] = outs[i]
		} else {
			V[d] = mat.Empty()
		}
	}
	return nil
}

// userCall dispatches OpCallUser through the host. The argument and
// result lists live in the activation's frame scratch (sized by Prepare
// for the program's widest call); the callee runs on the next frame of
// the chain, so the scratch is free again as soon as the results are
// copied out.
func userCall(p *ir.Prog, host Host, aux []int32, at int, V, argScratch []*mat.Value, fr *Frame) error {
	name := p.Calls[aux[at]]
	nout := int(aux[at+1])
	dsts := aux[at+2 : at+2+nout]
	nargs := int(aux[at+2+nout])
	argRegs := aux[at+3+nout : at+3+nout+nargs]
	args := argScratch[:nargs]
	for i, r := range argRegs {
		v := V[r]
		if v == nil {
			return fmt.Errorf("%s: undefined argument", name)
		}
		args[i] = v
	}
	outs, err := host.CallUser(name, args, nout, fr)
	clear(args)
	if err != nil {
		return err
	}
	if len(outs) < nout {
		return fmt.Errorf("%s: not enough output arguments", name)
	}
	for i, d := range dsts {
		V[d] = outs[i]
	}
	clear(fr.outs)
	return nil
}

// gemv executes the fused dgemv instruction: dst = alpha*A*x + beta*y.
// Shape or kind mismatches fall back to the generic operators so the
// fusion is never observable semantically.
func gemv(aux []int32, at int, alpha float64, dst int, V []*mat.Value) error {
	a := V[aux[at]]
	x := V[aux[at+1]]
	var y *mat.Value
	if aux[at+2] >= 0 {
		y = V[aux[at+2]]
	}
	beta := float64(aux[at+3])
	if a == nil || x == nil {
		return fmt.Errorf("gemv: undefined operand")
	}

	fastOK := !x.IsSparse() &&
		a.Kind() != mat.Complex && a.Kind() != mat.Char &&
		x.Kind() != mat.Complex && x.Kind() != mat.Char &&
		x.Cols() == 1 && a.Cols() == x.Rows() && a.Rows() > 0
	if fastOK && y != nil {
		fastOK = !y.IsSparse() && y.Kind() != mat.Complex && y.Kind() != mat.Char &&
			y.Cols() == 1 && y.Rows() == a.Rows()
	}
	if fastOK {
		// Shared β prologue; the α*A*x accumulation then starts from the
		// staged y values with β=1 in both the dense and sparse kernels,
		// so per-element rounding order is identical across the two
		// representations (sparse SpMV mirrors Dgemv's ascending-column
		// accumulation exactly).
		out := mat.New(a.Rows(), 1)
		re := out.Re()
		if y != nil && beta != 0 {
			yre := y.Re()
			if beta == 1 {
				copy(re, yre)
			} else {
				for i := range re {
					re[i] = beta * yre[i]
				}
			}
		}
		if a.IsSparse() {
			mat.SparseSpMVInto(a, alpha, x.Re(), 1, re)
		} else {
			blas.Dgemv(false, a.Rows(), a.Cols(), alpha, a.Re(), a.Rows(), x.Re(), 1, re)
		}
		V[dst] = out
		return nil
	}

	// Semantic fallback through the boxed operators.
	prod, err := mat.Mul(a, x)
	if err != nil {
		return err
	}
	if alpha == -1 {
		prod, err = mat.Neg(prod)
		if err != nil {
			return err
		}
	} else if alpha != 1 {
		prod, err = mat.ElemMul(mat.Scalar(alpha), prod)
		if err != nil {
			return err
		}
	}
	if y == nil || beta == 0 {
		V[dst] = prod
		return nil
	}
	yTerm := y
	if beta == -1 {
		yTerm, err = mat.Neg(y)
		if err != nil {
			return err
		}
	} else if beta != 1 {
		yTerm, err = mat.ElemMul(mat.Scalar(beta), y)
		if err != nil {
			return err
		}
	}
	out, err := mat.Add(prod, yTerm)
	if err != nil {
		return err
	}
	V[dst] = out
	return nil
}
