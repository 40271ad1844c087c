package vm

import (
	"fmt"

	"repro/internal/blas"
	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/mat"
)

// evalUnOp dispatches the generic unary opcodes. Negation and the
// transposes may build their result in one of d's donors, the operand
// included.
func evalUnOp(code int32, v *mat.Value, d mat.Donors) (*mat.Value, error) {
	switch code {
	case ir.UnNeg:
		return d.Neg(v)
	case ir.UnPlus:
		return mat.UPlus(v)
	case ir.UnNot:
		return mat.Not(v)
	case ir.UnTrans:
		return d.Transpose(v, false)
	}
	return d.Transpose(v, true) // ir.UnCTrans, the one code verify leaves
}

// maxSubs is the most subscripts an indexing instruction can carry.
const maxSubs = 2

// decodeSubs resolves boxed subscript registers (colon markers and
// index vectors) into mat.Subscript values, in the caller's buf.
func decodeSubs(aux []int32, at int, V []*mat.Value, buf *[maxSubs]mat.Subscript) ([]mat.Subscript, error) {
	n := int(aux[at])
	if n > maxSubs {
		return nil, fmt.Errorf("unsupported number of subscripts (%d)", n)
	}
	subs := buf[:n]
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
	if aux[at] == 1 {
		// e(p): one scalar subscript needs no index list. (The colon
		// marker is 0x0, which IndexScalar declines like any non-scalar.)
		if s := V[aux[at+1]]; s != nil {
			if v, ok := mat.IndexScalar(base, s); ok {
				return v, nil
			}
		}
	}
	var buf [maxSubs]mat.Subscript
	subs, err := decodeSubs(aux, at, V, &buf)
	if err != nil {
		return nil, err
	}
	switch len(subs) {
	case 0:
		base.MarkShared()
		return base, nil
	case 1:
		return mat.Index1(base, subs[0])
	}
	return mat.Index2(base, subs[0], subs[1])
}

func genericAssign(base *mat.Value, aux []int32, at int, V []*mat.Value, rhs *mat.Value) error {
	if rhs == nil {
		return fmt.Errorf("assignment from undefined value")
	}
	var buf [maxSubs]mat.Subscript
	subs, err := decodeSubs(aux, at, V, &buf)
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

// genericBuiltin dispatches OpGBuiltin. It builds the argument list in
// the frame's boxed scratch: a builtin reads its arguments and returns,
// it does not keep the slice.
func genericBuiltin(c *Compiled, ctx *builtins.Context, aux []int32, at int, V, argScratch []*mat.Value) error {
	b := c.builtins[aux[at]]
	nout := int(aux[at+1])
	dsts := aux[at+2 : at+2+nout]
	nargs := int(aux[at+2+nout])
	argRegs := aux[at+3+nout : at+3+nout+nargs]
	args := argScratch[:nargs]
	for i, r := range argRegs {
		v := V[r]
		if v == nil {
			return fmt.Errorf("%s: undefined argument", b.Name)
		}
		args[i] = v
	}
	outs, err := builtins.Call(ctx, b, args, nout)
	if err == nil {
		for i, d := range dsts {
			if i < len(outs) {
				V[d] = outs[i]
			} else {
				V[d] = mat.Empty()
			}
		}
	}
	clear(args)
	return err
}

// userCall dispatches OpCallUser through the host. The argument and
// result lists live in the activation's operand scratch (sized by Prepare
// for the program's widest call); the callee runs on the next frame of
// the chain, so the scratch is free again as soon as the results are
// taken. A Staged argument is already in its slot, put there unboxed by
// OpStageF/I; a Staged result stays in outs, as the callee left it, for
// the OpFetchF/I that follows. Everything else is boxed, here.
func userCall(site *CallSite, host Host, aux []int32, at int, V []*mat.Value, slots, outs []Operand, fr *Frame) error {
	name := site.Name
	nout := int(aux[at+1])
	dsts := aux[at+2 : at+2+nout]
	nargs := int(aux[at+2+nout])
	args := slots[:nargs]
	for i, r := range aux[at+3+nout : at+3+nout+nargs] {
		if r == ir.Staged {
			continue
		}
		v := V[r]
		if v == nil {
			clear(args)
			return fmt.Errorf("%s: undefined argument", name)
		}
		args[i] = Operand{V: v}
	}
	res, err := host.CallUser(site, args, nout, fr)
	clear(args)
	if err != nil {
		return err
	}
	if len(res) < nout {
		return fmt.Errorf("%s: not enough output arguments", name)
	}
	for i, d := range dsts {
		if d == ir.Staged {
			outs[i] = res[i] // where a callee off the chain did not put it
		} else {
			V[d] = res[i].Box()
			outs[i] = Operand{}
		}
	}
	clear(outs[nout:]) // outputs the callee has and this call did not ask for
	return nil
}

// gemv executes the fused dgemv instruction: dst = alpha*op(A)*x + beta*y,
// op the transpose trans names (ir.GEMVTrans...) or none. Shape or kind
// mismatches fall back to the generic operators so the fusion is never
// observable semantically.
func gemv(aux []int32, at int, trans int32, alpha float64, dst int, V []*mat.Value) error {
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

	rows, inner := a.Rows(), a.Cols()
	if trans != ir.GEMVNoTrans {
		rows, inner = inner, rows
	}
	fastOK := !x.IsSparse() &&
		a.Kind() != mat.Complex && a.Kind() != mat.Char &&
		x.Kind() != mat.Complex && x.Kind() != mat.Char &&
		x.Cols() == 1 && inner == x.Rows() && rows > 0
	if fastOK && y != nil {
		fastOK = !y.IsSparse() && y.Kind() != mat.Complex && y.Kind() != mat.Char &&
			y.Cols() == 1 && y.Rows() == rows
	}
	// Dense A' is read in place: the dot product of each column of A
	// with x adds A(k,i)*x(k) in ascending k from zero, the sums the
	// interpreter's product over the transposed copy makes. A sparse A,
	// and whatever the fast path does not take, is transposed first, as
	// the interpreter does.
	if trans != ir.GEMVNoTrans && (!fastOK || a.IsSparse()) {
		var err error
		if a, err = (mat.Donors{}).Transpose(a, trans == ir.GEMVConjTrans); err != nil {
			return err
		}
		trans = ir.GEMVNoTrans
	}
	// Both paths apply the interpreter's operators in the interpreter's
	// order: A*x, computed from zero (Dgemv and SpMV with α = 1 add a
	// row's terms in the order mat.Mul's kernels do), then the source's
	// own + or - of y — y - A*x is a subtraction from y, not the sum of a
	// negated product, whose NaNs would carry the other sign. verify
	// admits only α ∈ {1, -1} and β ∈ {0, 1, -1}, the coefficients the
	// code generator emits, so the result is the interpreter's bit for
	// bit.
	subFromY := alpha == -1 && beta == 1 && y != nil
	if fastOK {
		// The kernel reads A and x while it writes, and y is read after,
		// so only a displaced destination that is none of them (x = A*x)
		// may hold the result.
		out := mat.Donors{Dst: V[dst]}.NewReal(rows, 1, false, a, x, y)
		re := out.Re()
		switch {
		case a.IsSparse():
			mat.SparseSpMVInto(a, 1, x.Re(), 0, re)
		case trans != ir.GEMVNoTrans:
			blas.Dgemv(true, a.Rows(), a.Cols(), 1, a.Re(), a.Rows(), x.Re(), 0, re)
		default:
			blas.Dgemv(false, a.Rows(), a.Cols(), 1, a.Re(), a.Rows(), x.Re(), 0, re)
		}
		switch {
		case subFromY:
			for i, yi := range y.Re() {
				re[i] = yi - re[i]
			}
		case alpha == -1:
			for i := range re {
				re[i] = -re[i]
			}
		}
		if y != nil && !subFromY {
			for i, yi := range y.Re() {
				switch beta {
				case 1:
					re[i] += yi
				case -1:
					re[i] -= yi
				}
			}
		}
		V[dst] = out
		return nil
	}

	// Semantic fallback through the boxed operators.
	prod, err := mat.Mul(a, x)
	if err != nil {
		return err
	}
	switch {
	case subFromY:
		prod, err = mat.Sub(y, prod)
	case alpha == -1:
		prod, err = mat.Neg(prod)
	}
	if err != nil {
		return err
	}
	switch {
	case subFromY || y == nil:
	case beta == 1:
		prod, err = mat.Add(prod, y)
	case beta == -1:
		prod, err = mat.Sub(prod, y)
	}
	if err != nil {
		return err
	}
	V[dst] = prod
	return nil
}
