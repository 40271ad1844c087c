package vm

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/mat"
)

// oneOpProgs builds the two spellings of x∘y codegen chooses between:
// the generic instruction over boxed operands, and a fused kernel of
// one operator. A scalar side ("f" or "i") arrives in a register: the
// generic form boxes it, the kernel stages it in its slot file.
func oneOpProgs(op ast.BinOp, fuse int32, xBank, yBank ir.Bank) (generic, fused *ir.Prog) {
	params := []ir.ParamBinding{{Bank: xBank, Reg: 0}, {Bank: yBank, Reg: 0}}
	if xBank == ir.BankV && yBank == ir.BankV {
		params[1].Reg = 1
	}
	var gins, fins []ir.Instr
	aux := []int32{0}  // nv, then vregs
	var code []int32   // micro-ops
	vreg := [2]int32{} // the generic form's V operands
	nslots := int32(0)
	for k, b := range []ir.Bank{xBank, yBank} {
		switch b {
		case ir.BankV:
			vreg[k] = params[k].Reg
			code = append(code, ir.FuseLoadV, aux[0])
			aux = append(aux, params[k].Reg)
			aux[0]++
		case ir.BankF:
			vreg[k] = 2
			gins = append(gins, ir.Instr{Op: ir.OpBoxF, A: 2, B: 0})
			fins = append(fins, ir.Instr{Op: ir.OpVFuseArgF, A: nslots, B: 0})
			code = append(code, ir.FuseLoadSF, nslots)
			nslots++
		case ir.BankI:
			vreg[k] = 2
			gins = append(gins, ir.Instr{Op: ir.OpBoxI, A: 2, B: 0})
			fins = append(fins, ir.Instr{Op: ir.OpItoF, A: 1, B: 0}, ir.Instr{Op: ir.OpVFuseArgF, A: nslots, B: 1})
			code = append(code, ir.FuseLoadSI, nslots)
			nslots++
		}
	}
	code = append(code, fuse, 0)
	aux = append(aux, nslots, int32(len(code)/2))
	aux = append(aux, code...)
	gins = append(gins, ir.Instr{Op: ir.OpGBin, A: 3, B: vreg[0], C: vreg[1], D: int32(op)}, ir.Instr{Op: ir.OpRet})
	fins = append(fins, ir.Instr{Op: ir.OpVFused, A: 3, B: 0}, ir.Instr{Op: ir.OpRet})
	generic = &ir.Prog{Name: "g", NumF: 2, NumI: 1, NumV: 4, Params: params, Ins: gins, OutRegs: []int32{3}}
	fused = &ir.Prog{Name: "f", NumF: 2, NumI: 1, NumV: 4, Params: params, Ins: fins, OutRegs: []int32{3}, Aux: aux}
	return generic, fused
}

// TestFusedOneOpEqualsGBin: a one-operator kernel — what codegen emits
// for alpha*p and friends — is OpGBin on the same operands: the same
// value bits, kind and shape, and the same error when shapes disagree.
func TestFusedOneOpEqualsGBin(t *testing.T) {
	vecOf := func(k mat.Kind, rows, cols int, f func(i int) float64) *mat.Value {
		re := make([]float64, rows*cols)
		for i := range re {
			re[i] = f(i)
		}
		return mat.FromColMajor(k, rows, cols, re, nil)
	}
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 5e-324, 1 << 53, 1e308, -1e308, 0.5, 3, -7}
	const n = 1300 // two full blocks and a part
	operands := []*mat.Value{
		vecOf(mat.Real, n, 1, func(i int) float64 { return specials[i%len(specials)] * float64(i%5+1) }),
		vecOf(mat.Real, n, 1, func(i int) float64 { return float64(i)*0.37 - 200 }),
		vecOf(mat.Int, n, 1, func(i int) float64 { return float64(i%19 - 4) }),
		vecOf(mat.Int, n, 1, func(i int) float64 { return []float64{1e308, 1 << 53, 3}[i%3] }),
		vecOf(mat.Bool, n, 1, func(i int) float64 { return float64(i % 2) }),
		vecOf(mat.Char, 1, n, func(i int) float64 { return float64('a' + i%26) }),
		vecOf(mat.Real, 2, 3, func(i int) float64 { return float64(i) + 0.5 }),
		mat.Scalar(2.5), mat.IntScalar(-3), mat.Empty(),
		mat.ComplexScalar(complex(1, 2)), // the kernel's boxed fallback
	}
	ops := []struct {
		op   ast.BinOp
		fuse int32
	}{{ast.OpAdd, ir.FuseAdd}, {ast.OpSub, ir.FuseSub}, {ast.OpEMul, ir.FuseMul}, {ast.OpEDiv, ir.FuseDiv}}
	scalars := []float64{2, -0.5, 0, math.NaN(), 1e308}

	check := func(name string, g, f *ir.Prog, args ...*mat.Value) {
		t.Helper()
		g.Allocated, f.Allocated = true, true
		cg, err := Prepare(g)
		if err != nil {
			t.Fatal(err)
		}
		cf, err := Prepare(f)
		if err != nil {
			t.Fatal(err)
		}
		want, werr := runBoxed(cg, newTestHost(), args)
		got, gerr := runBoxed(cf, newTestHost(), args)
		// The runtime error's text, without the (fn, pc) it is located at.
		text := func(err error) string {
			var e *Error
			if errors.As(err, &e) {
				return e.Err.Error()
			}
			return fmt.Sprint(err)
		}
		if (werr == nil) != (gerr == nil) || text(werr) != text(gerr) {
			t.Fatalf("%s: kernel error %v, generic error %v", name, gerr, werr)
		}
		if werr != nil {
			return
		}
		w, k := want[0], got[0]
		if k.Kind() != w.Kind() || k.Rows() != w.Rows() || k.Cols() != w.Cols() {
			t.Fatalf("%s: kernel %v %dx%d, generic %v %dx%d", name, k.Kind(), k.Rows(), k.Cols(), w.Kind(), w.Rows(), w.Cols())
		}
		for _, part := range [][2][]float64{{k.Re(), w.Re()}, {k.Im(), w.Im()}} {
			for i := range part[1] {
				if a, b := part[0][i], part[1][i]; math.Float64bits(a) != math.Float64bits(b) && !(math.IsNaN(a) && math.IsNaN(b)) {
					t.Fatalf("%s: element %d is %v, generic %v", name, i, a, b)
				}
			}
		}
	}

	for _, o := range ops {
		for i, x := range operands {
			for j, y := range operands {
				g, f := oneOpProgs(o.op, o.fuse, ir.BankV, ir.BankV)
				check(fmt.Sprintf("%v operands %d,%d", o.op, i, j), g, f, x, y)
			}
			for _, s := range scalars {
				for _, bank := range []ir.Bank{ir.BankF, ir.BankI} {
					if bank == ir.BankI && (s != math.Trunc(s) || math.Abs(s) > 1e9) {
						continue
					}
					g, f := oneOpProgs(o.op, o.fuse, bank, ir.BankV)
					check(fmt.Sprintf("%v scalar %g (bank %d) with operand %d", o.op, s, bank, i), g, f, mat.Scalar(s), x)
					g, f = oneOpProgs(o.op, o.fuse, ir.BankV, bank)
					check(fmt.Sprintf("%v operand %d with scalar %g (bank %d)", o.op, i, s, bank), g, f, x, mat.Scalar(s))
				}
			}
		}
	}
}
