package builtins

import (
	"repro/internal/ast"
	"repro/internal/mat"
)

// EvalBinOp applies a (non-short-circuit) binary operator to boxed
// values: the interpreter's entry to the dispatcher below.
func EvalBinOp(op ast.BinOp, l, r *mat.Value) (*mat.Value, error) {
	return EvalBinOpInto(mat.Donors{}, op, l, r)
}

// EvalBinOpInto is the dispatcher the interpreter and the VM's generic
// instruction path share — the analog of the MATLAB C library's
// polymorphic operator entry points. The operators that produce a dense
// real array (+ - * / \ .* ./ .\) may build it in one of d's donors; a
// result built in an operand is returned as that operand.
func EvalBinOpInto(d mat.Donors, op ast.BinOp, l, r *mat.Value) (*mat.Value, error) {
	switch op {
	case ast.OpAdd:
		return d.Add(l, r)
	case ast.OpSub:
		return d.Sub(l, r)
	case ast.OpMul:
		return d.Mul(l, r)
	case ast.OpDiv:
		return d.Div(l, r, func(a, b *mat.Value) (*mat.Value, error) { return MLDivide(mat.Donors{}, a, b) })
	case ast.OpLDiv:
		return MLDivide(d, l, r)
	case ast.OpPow:
		return mat.Pow(l, r)
	case ast.OpEMul:
		return d.ElemMul(l, r)
	case ast.OpEDiv:
		return d.ElemDiv(l, r)
	case ast.OpELDiv:
		return d.ElemLDiv(l, r)
	case ast.OpEPow:
		return mat.ElemPow(l, r)
	case ast.OpEq:
		return mat.Compare(mat.CmpEq, l, r)
	case ast.OpNe:
		return mat.Compare(mat.CmpNe, l, r)
	case ast.OpLt:
		return mat.Compare(mat.CmpLt, l, r)
	case ast.OpLe:
		return mat.Compare(mat.CmpLe, l, r)
	case ast.OpGt:
		return mat.Compare(mat.CmpGt, l, r)
	case ast.OpGe:
		return mat.Compare(mat.CmpGe, l, r)
	case ast.OpAnd:
		return mat.And(l, r)
	case ast.OpOr:
		return mat.Or(l, r)
	case ast.OpCase:
		return mat.BoolScalar(caseMatch(l, r)), nil
	}
	return nil, mat.Errorf("unknown binary operator %v", op)
}

// caseMatch is the rule by which a switch's subject matches a case value
// (DESIGN §6): a char on either side matches a char of the same text, a
// non-scalar matches nothing, and two scalars match when equal.
func caseMatch(subj, cv *mat.Value) bool {
	if subj.Kind() == mat.Char || cv.Kind() == mat.Char {
		return subj.Kind() == cv.Kind() && subj.Text() == cv.Text()
	}
	if !cv.IsScalar() || !subj.IsScalar() {
		return false
	}
	return subj.At(0, 0) == cv.At(0, 0)
}
