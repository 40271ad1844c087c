package vm

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// gemvProg builds dst = alpha*A*x + beta*y through OpGEMV.
func gemvProg(alpha float64, betaCode int32, withY bool) *ir.Prog {
	p := &ir.Prog{
		Name: "g",
		NumV: 4,
		Params: []ir.ParamBinding{
			{Bank: ir.BankV, Reg: 0},
			{Bank: ir.BankV, Reg: 1},
			{Bank: ir.BankV, Reg: 2},
		},
	}
	yReg := int32(2)
	if !withY {
		yReg = -1
	}
	aux := p.AddAux(0, 1, yReg, betaCode)
	p.Ins = []ir.Instr{
		{Op: ir.OpGEMV, A: 3, B: aux, Imm: alpha},
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{3}
	return p
}

func TestGEMVFastPath(t *testing.T) {
	a := mat.FromSlice(2, 2, []float64{1, 2, 3, 4})
	x := mat.FromSlice(2, 1, []float64{1, 1})
	y := mat.FromSlice(2, 1, []float64{10, 20})
	// dst = -1*A*x + 1*y = y - A*x; A*x = [3; 7]
	outs := run(t, gemvProg(-1, 1, true), a, x, y)
	if outs[0].Re()[0] != 7 || outs[0].Re()[1] != 13 {
		t.Fatalf("y - A*x = %v", outs[0])
	}
	// beta = 0 form
	outs = run(t, gemvProg(1, 0, false), a, x, y)
	if outs[0].Re()[0] != 3 || outs[0].Re()[1] != 7 {
		t.Fatalf("A*x = %v", outs[0])
	}
}

func TestGEMVSemanticFallback(t *testing.T) {
	// complex operands force the non-BLAS path; results must still be
	// exact
	a := mat.NewKind(mat.Complex, 2, 2)
	copy(a.Re(), []float64{1, 2, 3, 4})
	a.Im()[0] = 1 // A(1,1) = 1+1i
	x := mat.FromSlice(2, 1, []float64{1, 1})
	y := mat.FromSlice(2, 1, []float64{10, 20})
	outs := run(t, gemvProg(1, 1, true), a, x, y)
	got := outs[0]
	if got.Kind() != mat.Complex {
		t.Fatalf("fallback lost complex kind: %v", got)
	}
	// A*x = [(1+1i)+3; 2+4] = [4+1i; 6]; +y → [14+1i; 26]
	if got.ComplexAt(0) != 14+1i || got.ComplexAt(1) != 26 {
		t.Fatalf("fallback result %v", got)
	}
	// shape-mismatched y also falls back... to an error from Add
	badY := mat.FromSlice(3, 1, []float64{1, 2, 3})
	if err := runErr(t, gemvProg(1, 1, true), a, x, badY); err == nil {
		t.Fatal("mismatched y must error")
	}
}

func TestGColonAndGCat(t *testing.T) {
	p := &ir.Prog{
		Name: "c",
		NumF: 3,
		NumV: 6,
	}
	// v = 1:3; m = [v; v*0-1 rows]: build [1 2 3] then cat two rows
	catAux := p.AddAux(2 /*rows*/, 1, 4 /*row1: reg4*/, 1, 4 /*row2: reg4*/)
	one := fconst(p, 1)
	p.Ins = []ir.Instr{
		{Op: ir.OpBoxF, A: 0, B: one},
		{Op: ir.OpBoxF, A: 1, B: one},
		{Op: ir.OpBoxF, A: 2, B: fconst(p, 3)},
		{Op: ir.OpGColon, A: 4, B: 0, C: 1, D: 2}, // V4 = 1:1:3
		{Op: ir.OpGCat, A: 5, B: catAux},          // V5 = [V4; V4]
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{5}
	outs := run(t, p)
	m := outs[0]
	if m.Rows() != 2 || m.Cols() != 3 || m.At(1, 2) != 3 {
		t.Fatalf("cat result %v (%dx%d)", m, m.Rows(), m.Cols())
	}
}

func TestGIndexColonMarker(t *testing.T) {
	p := &ir.Prog{
		Name:   "ix",
		NumI:   1,
		NumV:   4,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
		VPoolStrs: []ir.VConstDesc{
			{IsColon: true},
		},
	}
	aux := p.AddAux(2, 1, 2) // args: V1 (colon), V2 (boxed column index)
	p.Ins = []ir.Instr{
		{Op: ir.OpVConst, A: 1, B: 0},
		{Op: ir.OpBoxI, A: 2, B: iconst(p, 2)},
		{Op: ir.OpGIndex, A: 3, B: 0, C: aux}, // V3 = A(:, 2)
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{3}
	a := mat.FromSlice(2, 3, []float64{1, 2, 3, 4, 5, 6})
	outs := run(t, p, a)
	col := outs[0]
	if col.Rows() != 2 || col.Re()[0] != 2 || col.Re()[1] != 5 {
		t.Fatalf("A(:,2) = %v", col)
	}
}

func TestGAssignCopyOnWrite(t *testing.T) {
	p := &ir.Prog{
		Name:   "as",
		NumI:   1,
		NumV:   3,
		Params: []ir.ParamBinding{{Bank: ir.BankV, Reg: 0}},
	}
	aux := p.AddAux(1, 1) // one subscript in V1
	one := iconst(p, 1)
	p.Ins = []ir.Instr{
		{Op: ir.OpBoxI, A: 1, B: one},
		{Op: ir.OpBoxI, A: 2, B: one},          // rhs = 1
		{Op: ir.OpGAssign, A: 0, C: aux, D: 2}, // A(1) = 1
		{Op: ir.OpRet},
	}
	p.OutRegs = []int32{0}
	caller := mat.FromSlice(1, 3, []float64{7, 8, 9})
	outs := run(t, p, caller)
	if outs[0].Re()[0] != 1 {
		t.Fatalf("assignment lost: %v", outs[0])
	}
	if caller.Re()[0] != 7 {
		t.Fatalf("caller's array mutated through GAssign: %v", caller)
	}
}

// TestGEMVMatchesTheBoxedOperators: the fast path applies the operators
// its fallback spells out, the interpreter's for each source form —
// A*x, A*x + y, y - A*x, A*x - y (and -A*x, -A*x - y) — bit for bit,
// over a dense and a sparse A whose row sums round differently depending
// on where y is added. A NaN in y must come out where the boxed operators
// put it (its payload is the compiler's to choose: it may swap the
// operands of an addition).
func TestGEMVMatchesTheBoxedOperators(t *testing.T) {
	const n = 7
	dense := mat.New(n, n)
	var ri, ci []int
	var vs []float64
	for i := range n {
		for j := range n {
			if v := 1/float64(i+j+1) + float64((i*j)%3)*1e-3; (i+j)%4 != 3 {
				dense.SetAt(i, j, v)
				ri, ci, vs = append(ri, i), append(ci, j), append(vs, v)
			}
		}
	}
	sparse, err := mat.SparseFromTriplets(n, n, ri, ci, vs)
	if err != nil {
		t.Fatal(err)
	}
	x, y := mat.New(n, 1), mat.New(n, 1)
	for i := range n {
		x.Re()[i] = 1 + float64(i)/3
		y.Re()[i] = 1e3 / float64(i+3)
	}
	y.Re()[5] = math.NaN()
	for _, a := range []*mat.Value{dense, sparse} {
		for _, alpha := range []float64{1, -1} {
			for _, beta := range []int32{0, 1, -1} {
				got := run(t, gemvProg(alpha, beta, beta != 0), a, x, y)[0]
				want := boxedGEMV(t, a, x, y, alpha, beta)
				for i, w := range want.Re() {
					if g := got.Re()[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
						t.Errorf("sparse %v, α %g, β %d: element %d = %v (%x), boxed %v (%x)",
							a.IsSparse(), alpha, beta, i, g, math.Float64bits(g), w, math.Float64bits(w))
					}
				}
			}
		}
	}
}

// boxedGEMV is what the interpreter computes for the source form gemv
// fuses with coefficients alpha and beta: A*x, then the source's own +
// or - of y.
func boxedGEMV(t *testing.T, a, x, y *mat.Value, alpha float64, beta int32) *mat.Value {
	t.Helper()
	want, err := mat.Mul(a, x)
	switch {
	case err != nil:
	case alpha == -1 && beta == 1:
		want, err = mat.Sub(y, want)
	case alpha == -1:
		want, err = mat.Neg(want)
	}
	switch {
	case err != nil, alpha == -1 && beta == 1:
	case beta == 1:
		want, err = mat.Add(want, y)
	case beta == -1:
		want, err = mat.Sub(want, y)
	}
	if err != nil {
		t.Fatal(err)
	}
	return want
}

// TestTransposedGEMVIsTransposeThenMultiply: gemv with a transposed
// operand reads A in place, and returns bit for bit what the boxed
// operators give for A' followed by the product — for every shape
// around the vector pass's widths, NaNs, Infs and signed zeros in A
// and x, every coefficient the code generator emits, one thread or
// four. A p'*q of two columns is the dot product the interpreter
// computes. A sparse A takes the fallback: transposed first.
func TestTransposedGEMVIsTransposeThenMultiply(t *testing.T) {
	defer parallel.SetDefaultThreads(0)
	r := rand.New(rand.NewSource(44))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}
	// mode 0: finite values; 1: some NaNs, Infs and signed zeros; 2: x
	// all signed zeros, so that every sum is a zero whose sign shows.
	fill := func(v []float64, mode int) {
		for i := range v {
			v[i] = r.Float64()*4 - 2
			if mode == 1 && r.Intn(8) == 0 {
				v[i] = specials[r.Intn(len(specials))]
			}
		}
	}
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 60, 61}
	for _, threads := range []int{1, 4} {
		parallel.SetDefaultThreads(threads)
		for _, m := range sizes[1:] { // an x of one row is a scalar, which gemv is never handed
			for _, n := range sizes {
				for mode := range 3 {
					a, x, y := mat.New(m, n), mat.New(m, 1), mat.New(n, 1)
					fill(a.Re(), mode)
					fill(x.Re(), mode)
					fill(y.Re(), mode)
					if mode == 2 {
						for i := range x.Re() {
							x.Re()[i] = math.Copysign(0, float64(r.Intn(2))-0.5)
						}
					}
					operands := []*mat.Value{a}
					if mode == 0 {
						var ri, ci []int
						var vs []float64
						for k, v := range a.Re() {
							if k%3 != 1 {
								ri, ci, vs = append(ri, k%m), append(ci, k/m), append(vs, v)
							}
						}
						sp, err := mat.SparseFromTriplets(m, n, ri, ci, vs)
						if err != nil {
							t.Fatal(err)
						}
						operands = append(operands, sp)
					}
					for _, op := range operands {
						for _, flag := range []int32{ir.GEMVTrans, ir.GEMVConjTrans} {
							at, err := mat.Transpose(op)
							if err != nil {
								t.Fatal(err)
							}
							for _, alpha := range []float64{1, -1} {
								for _, beta := range []int32{0, 1, -1} {
									p := gemvProg(alpha, beta, beta != 0)
									p.Ins[0].C = flag
									got := run(t, p, op, x, y)[0]
									want := boxedGEMV(t, at, x, y, alpha, beta)
									if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
										t.Fatalf("%dx%d sparse %v: %dx%d result, boxed %dx%d", m, n, op.IsSparse(),
											got.Rows(), got.Cols(), want.Rows(), want.Cols())
									}
									for i, w := range want.Re() {
										if g := got.Re()[i]; math.Float64bits(g) != math.Float64bits(w) && !(math.IsNaN(g) && math.IsNaN(w)) {
											t.Fatalf("%dx%d sparse %v mode %d, α %g, β %d, %d threads: element %d = %v (%x), boxed %v (%x)",
												m, n, op.IsSparse(), mode, alpha, beta, threads, i, g, math.Float64bits(g), w, math.Float64bits(w))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
