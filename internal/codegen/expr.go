package codegen

import (
	"math"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/types"
)

// expr compiles an expression, returning the bank and register holding
// its value. The bank is chosen from the inference annotation: typed
// scalar results live unboxed in F/I/C registers (the paper's "replace
// MATLAB's polymorphic operations with single machine instructions"),
// everything else is a boxed V value.
func (g *gen) expr(e ast.Expr) (ir.Bank, int32) {
	switch x := e.(type) {
	case *ast.NumberLit:
		// A literal is a constant register: no instruction.
		if x.Imag && x.Value == 0 {
			// 0i is complex with a zero imaginary part, which no C
			// register can say (kinds.go): its box keeps the kind.
			d := g.newReg(ir.BankV)
			g.emit(ir.Instr{Op: ir.OpBoxC, A: d, B: g.prog.CConst(0), Imm: 1})
			return ir.BankV, d
		}
		if x.Imag {
			return ir.BankC, g.prog.CConst(complex(0, x.Value))
		}
		if x.IsInt && math.Abs(x.Value) <= infer.MaxExactInt { // inference types a larger one real
			return ir.BankI, g.prog.IConst(int64(x.Value))
		}
		return ir.BankF, g.prog.FConst(x.Value)

	case *ast.StringLit:
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpVConst, A: d, B: g.vconst(VConst{Str: x.Value})})
		return ir.BankV, d

	case *ast.Ident:
		if g.isVarUse(x) {
			if s, ok := g.vars[x.Name]; ok {
				return s.bank, s.reg
			}
		}
		return g.nonVarIdent(x)

	case *ast.Binary:
		return g.binary(x)

	case *ast.Unary:
		return g.unary(x)

	case *ast.Transpose:
		return g.transpose(x)

	case *ast.Range:
		lb, lr := g.expr(x.Lo)
		lo := g.toV(lb, lr)
		var step int32
		if x.Step != nil {
			sb, sr := g.expr(x.Step)
			step = g.toV(sb, sr)
		} else {
			step = g.toV(ir.BankF, g.prog.FConst(1))
		}
		hb, hr := g.expr(x.Hi)
		hi := g.toV(hb, hr)
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpGColon, A: d, B: lo, C: step, D: hi})
		return ir.BankV, d

	case *ast.End:
		return g.endValue(x)

	case *ast.Colon:
		panic(unsupported("':' outside a subscript"))

	case *ast.Call:
		return g.call(x)

	case *ast.Matrix:
		return g.matrixLit(x)
	}
	panic(unsupported("expression %T", e))
}

// isVarUse reports whether the disambiguator classified the identifier
// occurrence as a variable.
func (g *gen) isVarUse(x *ast.Ident) bool {
	if x.Kind == ast.Unresolved {
		return g.tbl.Vars[x.Name]
	}
	return x.Kind == ast.Variable
}

// nonVarIdent compiles an identifier that names a builtin constant or a
// niladic function call.
func (g *gen) nonVarIdent(x *ast.Ident) (ir.Bank, int32) {
	ann := g.annOf(x)
	// Constant-folded builtin constants (pi, eps, true, ...).
	if c, ok := ann.R.IsConst(); ok && ann.IsScalar() && types.LeqI(ann.I, types.IReal) {
		if types.LeqI(ann.I, types.IInt) {
			return ir.BankI, g.prog.IConst(int64(c))
		}
		return ir.BankF, g.prog.FConst(c)
	}
	if x.Name == "i" || x.Name == "j" {
		return ir.BankC, g.prog.CConst(complex(0, 1))
	}
	if b, r, ok := g.scalarRand(x.Name, 0, ann); ok {
		return b, r
	}
	if builtins.Lookup(x.Name) != nil {
		return ir.BankV, g.emitBuiltinByName(x.Name, nil, 1)[0]
	}
	// Niladic user function call.
	return ir.BankV, g.emitUserCallRegs(x.Name, nil, 1, ir.BankV)[0]
}

// scalarArith reports whether a binary op on these annotations can use
// typed scalar instructions, and in which bank.
func (g *gen) scalarArith(res, l, r types.Type) (ir.Bank, bool) {
	if !res.IsScalar() || !l.IsScalar() || !r.IsScalar() {
		return ir.BankV, false
	}
	switch {
	case types.LeqI(res.I, types.IInt):
		return ir.BankI, true
	case types.LeqI(res.I, types.IReal):
		return ir.BankF, true
	case types.LeqI(res.I, types.ICplx):
		return ir.BankC, true
	}
	return ir.BankV, false
}

func (g *gen) binary(x *ast.Binary) (ir.Bank, int32) {
	ann := g.annOf(x)
	lt, rt := g.annOf(x.L), g.annOf(x.R)

	// Short-circuit logicals.
	if x.Op == ast.OpAndAnd || x.Op == ast.OpOrOr {
		return g.shortCircuit(x)
	}

	if bank, ok := g.scalarArith(ann, lt, rt); ok {
		return g.scalarBinary(x, bank)
	}

	// dgemv fusion: y ± A*x and A*x (real matrix × vector).
	if g.cfg.FuseGEMV {
		if b, r, ok := g.tryGEMV(x); ok {
			return b, r
		}
	}

	// Fully unrolled elementwise ops on small exactly-shaped operands.
	if g.cfg.UnrollSmallVectors {
		if b, r, ok := g.tryUnrollElemwise(x); ok {
			return b, r
		}
	}

	// Fused elementwise kernel for whole trees of vector operators.
	if g.cfg.FuseElemwise {
		if b, r, ok := g.tryFuseExpr(x); ok {
			return b, r
		}
	}

	// A register scalar meeting an array: one kernel, no box.
	if b, r, ok := g.tryFuseScalar(x); ok {
		return b, r
	}

	// Generic fallback: boxed operands, polymorphic library call.
	lb, lr := g.expr(x.L)
	lv := g.toV(lb, lr)
	rb, rr := g.expr(x.R)
	rv := g.toV(rb, rr)
	d := g.newReg(ir.BankV)
	g.emit(ir.Instr{Op: ir.OpGBin, A: d, B: lv, C: rv, D: int32(x.Op), Imm: float64(g.consumed(lv, rv))})
	return ir.BankV, d
}

// scalarBinary emits typed scalar instructions.
func (g *gen) scalarBinary(x *ast.Binary, bank ir.Bank) (ir.Bank, int32) {
	compile := g.expr
	if bank == ir.BankC {
		compile = g.operand // complex arithmetic
	}
	lb, lr := compile(x.L)
	rb, rr := compile(x.R)

	if x.Op.IsRelational() {
		// Complex equality uses C compares; ordering uses F.
		if lb == ir.BankC || rb == ir.BankC {
			if x.Op == ast.OpEq || x.Op == ast.OpNe {
				a, b := g.toC(lb, lr), g.toC(rb, rr)
				d := g.newReg(ir.BankF)
				op := ir.OpCCmpEq
				if x.Op == ast.OpNe {
					op = ir.OpCCmpNe
				}
				g.emit(ir.Instr{Op: op, A: d, B: a, C: b})
				return ir.BankF, d
			}
			lb, lr = ir.BankF, g.toF(lb, lr)
			rb, rr = ir.BankF, g.toF(rb, rr)
		}
		if lb == ir.BankI && rb == ir.BankI {
			d := g.newReg(ir.BankF)
			var op ir.Op
			a, b := lr, rr
			switch x.Op {
			case ast.OpEq:
				op = ir.OpICmpEq
			case ast.OpNe:
				op = ir.OpICmpNe
			case ast.OpLt:
				op = ir.OpICmpLt
			case ast.OpLe:
				op = ir.OpICmpLe
			case ast.OpGt:
				op, a, b = ir.OpICmpLt, rr, lr
			case ast.OpGe:
				op, a, b = ir.OpICmpLe, rr, lr
			}
			g.emit(ir.Instr{Op: op, A: d, B: a, C: b})
			return ir.BankF, d
		}
		a, b := g.toF(lb, lr), g.toF(rb, rr)
		d := g.newReg(ir.BankF)
		var op ir.Op
		switch x.Op {
		case ast.OpEq:
			op = ir.OpFCmpEq
		case ast.OpNe:
			op = ir.OpFCmpNe
		case ast.OpLt:
			op = ir.OpFCmpLt
		case ast.OpLe:
			op = ir.OpFCmpLe
		case ast.OpGt:
			op, a, b = ir.OpFCmpLt, b, a
		case ast.OpGe:
			op, a, b = ir.OpFCmpLe, b, a
		}
		g.emit(ir.Instr{Op: op, A: d, B: a, C: b})
		return ir.BankF, d
	}

	if x.Op == ast.OpAnd || x.Op == ast.OpOr {
		a, b := g.toF(lb, lr), g.toF(rb, rr)
		d := g.newReg(ir.BankF)
		op := ir.OpFAnd
		if x.Op == ast.OpOr {
			op = ir.OpFOr
		}
		g.emit(ir.Instr{Op: op, A: d, B: a, C: b})
		return ir.BankF, d
	}

	switch bank {
	case ir.BankI:
		a, b := g.toI(lb, lr), g.toI(rb, rr)
		var op ir.Op
		switch x.Op {
		case ast.OpAdd:
			op = ir.OpIAdd
		case ast.OpSub:
			op = ir.OpISub
		case ast.OpMul, ast.OpEMul:
			op = ir.OpIMul
		case ast.OpPow, ast.OpEPow:
			// int^int via float pow, result known integral
			_, fd := g.scalarFloatOp(x.Op, g.toF(ir.BankI, a), g.toF(ir.BankI, b))
			return ir.BankI, g.toI(ir.BankF, fd)
		default:
			// int division etc. falls through to float
			return g.scalarFloatOp(x.Op, g.toF(ir.BankI, a), g.toF(ir.BankI, b))
		}
		return ir.BankI, g.intOp(op, a, b)

	case ir.BankF:
		a, b := g.toF(lb, lr), g.toF(rb, rr)
		return g.scalarFloatOp(x.Op, a, b)

	case ir.BankC:
		if (x.Op == ast.OpPow || x.Op == ast.OpEPow) && lb != ir.BankC && lb != ir.BankV && rb != ir.BankC && rb != ir.BankV {
			// Two reals keep the interpreter's rule: the result is complex
			// only for a negative base and a non-integral exponent.
			a, b := g.toF(lb, lr), g.toF(rb, rr)
			d := g.newReg(ir.BankC)
			g.emit(ir.Instr{Op: ir.OpFPowC, A: d, B: a, C: b})
			return ir.BankC, d
		}
		a, b := g.toC(lb, lr), g.toC(rb, rr)
		d := g.newReg(ir.BankC)
		switch x.Op {
		case ast.OpAdd:
			g.emit(ir.Instr{Op: ir.OpCAdd, A: d, B: a, C: b})
		case ast.OpSub:
			g.emit(ir.Instr{Op: ir.OpCSub, A: d, B: a, C: b})
		case ast.OpMul, ast.OpEMul:
			g.emit(ir.Instr{Op: ir.OpCMul, A: d, B: a, C: b})
		case ast.OpDiv, ast.OpEDiv:
			g.emit(ir.Instr{Op: ir.OpCDiv, A: d, B: a, C: b})
		case ast.OpLDiv, ast.OpELDiv:
			g.emit(ir.Instr{Op: ir.OpCDiv, A: d, B: b, C: a})
		case ast.OpPow, ast.OpEPow:
			g.emit(ir.Instr{Op: ir.OpCPow, A: d, B: a, C: b})
		default:
			panic(unsupported("complex scalar op %v", x.Op))
		}
		return ir.BankC, d
	}
	panic(unsupported("scalar op %v", x.Op))
}

// intOp emits one I-bank arithmetic instruction — or none, when both
// operands are literals: the JIT runs no optimiser, so what it does not
// fold here it computes on every trip. scalarFloatOp is the F bank's.
func (g *gen) intOp(op ir.Op, a, b int32) int32 {
	if a < 0 && b < 0 {
		if v, ok := ir.FoldI(op, g.prog.ConstI[^a], g.prog.ConstI[^b]); ok {
			return g.prog.IConst(v)
		}
	}
	d := g.newReg(ir.BankI)
	g.emit(ir.Instr{Op: op, A: d, B: a, C: b})
	return d
}

func (g *gen) scalarFloatOp(op ast.BinOp, a, b int32) (ir.Bank, int32) {
	var iop ir.Op
	switch op {
	case ast.OpAdd:
		iop = ir.OpFAdd
	case ast.OpSub:
		iop = ir.OpFSub
	case ast.OpMul, ast.OpEMul:
		iop = ir.OpFMul
	case ast.OpDiv, ast.OpEDiv:
		iop = ir.OpFDiv
	case ast.OpLDiv, ast.OpELDiv:
		iop, a, b = ir.OpFDiv, b, a
	case ast.OpPow, ast.OpEPow:
		iop = ir.OpFPow
	default:
		panic(unsupported("float scalar op %v", op))
	}
	if a < 0 && b < 0 {
		if v, ok := ir.FoldF(iop, g.prog.ConstF[^a], g.prog.ConstF[^b]); ok {
			return ir.BankF, g.prog.FConst(v)
		}
	}
	d := g.newReg(ir.BankF)
	g.emit(ir.Instr{Op: iop, A: d, B: a, C: b})
	return ir.BankF, d
}

// shortCircuit compiles && and || with lazy right-operand evaluation.
func (g *gen) shortCircuit(x *ast.Binary) (ir.Bank, int32) {
	d := g.newReg(ir.BankF)
	zero, one := g.prog.FConst(0), g.prog.FConst(1)
	if x.Op == ast.OpAndAnd {
		falseP := g.condFalsePatches(x.L)
		falseP = append(falseP, g.condFalsePatches(x.R)...)
		g.emit(ir.Instr{Op: ir.OpFMov, A: d, B: one})
		over := g.emit(ir.Instr{Op: ir.OpJmp})
		g.patch(falseP, g.here())
		g.emit(ir.Instr{Op: ir.OpFMov, A: d, B: zero})
		g.patch([]int{over}, g.here())
		return ir.BankF, d
	}
	falseL := g.condFalsePatches(x.L)
	// L true:
	g.emit(ir.Instr{Op: ir.OpFMov, A: d, B: one})
	overTrue := g.emit(ir.Instr{Op: ir.OpJmp})
	g.patch(falseL, g.here())
	falseR := g.condFalsePatches(x.R)
	g.emit(ir.Instr{Op: ir.OpFMov, A: d, B: one})
	over2 := g.emit(ir.Instr{Op: ir.OpJmp})
	g.patch(falseR, g.here())
	g.emit(ir.Instr{Op: ir.OpFMov, A: d, B: zero})
	g.patch([]int{overTrue, over2}, g.here())
	return ir.BankF, d
}

func (g *gen) unary(x *ast.Unary) (ir.Bank, int32) {
	ann := g.annOf(x)
	// A vector negation may root a fused elementwise tree; try before
	// evaluating the operand so nothing is compiled twice.
	if g.cfg.FuseElemwise && x.Op == ast.OpNeg && !ann.IsScalar() {
		if fb, fr, ok := g.tryFuseExpr(x); ok {
			return fb, fr
		}
	}
	b, r := g.expr(x.X)
	switch x.Op {
	case ast.OpNeg:
		if ann.IsScalar() {
			switch {
			case types.LeqI(ann.I, types.IInt) && b == ir.BankI:
				if r < 0 { // -1 is a literal too
					return ir.BankI, g.prog.IConst(-g.prog.ConstI[^r])
				}
				d := g.newReg(ir.BankI)
				g.emit(ir.Instr{Op: ir.OpINeg, A: d, B: r})
				return ir.BankI, d
			case types.LeqI(ann.I, types.IReal):
				f := g.toF(b, r)
				if f < 0 {
					return ir.BankF, g.prog.FConst(-g.prog.ConstF[^f])
				}
				d := g.newReg(ir.BankF)
				g.emit(ir.Instr{Op: ir.OpFNeg, A: d, B: f})
				return ir.BankF, d
			case types.LeqI(ann.I, types.ICplx) && b != ir.BankV:
				// (a boxed operand may carry a kind a C register drops: kinds.go)
				d := g.newReg(ir.BankC)
				g.emit(ir.Instr{Op: ir.OpCNeg, A: d, B: g.toC(b, r)})
				return ir.BankC, d
			}
		}
		v := g.toV(b, r)
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpGUn, A: d, B: v, D: unNeg, Imm: float64(g.consumed(v))})
		return ir.BankV, d
	case ast.OpPos:
		if b != ir.BankV {
			return b, r
		}
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpGUn, A: d, B: r, D: unPos})
		return ir.BankV, d
	case ast.OpNot:
		if ann.IsScalar() && b != ir.BankV {
			f := g.toF(b, r)
			d := g.newReg(ir.BankF)
			g.emit(ir.Instr{Op: ir.OpFNot, A: d, B: f})
			return ir.BankF, d
		}
		v := g.toV(b, r)
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpGUn, A: d, B: v, D: unNot})
		return ir.BankV, d
	}
	panic(unsupported("unary %v", x.Op))
}

// Unary op codes for OpGUn.
const (
	unNeg int32 = iota
	unPos
	unNot
	unTrans  // .'
	unCTrans // '
)

func (g *gen) transpose(x *ast.Transpose) (ir.Bank, int32) {
	ann := g.annOf(x)
	b, r := g.expr(x.X)
	if ann.IsScalar() && b != ir.BankV {
		if b == ir.BankC && x.Conjugate {
			d := g.newReg(ir.BankC)
			g.emit(ir.Instr{Op: ir.OpCConj, A: d, B: r})
			return ir.BankC, d
		}
		return b, r // real scalar transpose is the identity
	}
	v := g.toV(b, r)
	d := g.newReg(ir.BankV)
	code := unTrans
	if x.Conjugate {
		code = unCTrans
	}
	g.emit(ir.Instr{Op: ir.OpGUn, A: d, B: v, D: code, Imm: float64(g.consumed(v))})
	return ir.BankV, d
}

// endValue compiles the 'end' keyword from the enclosing index context.
func (g *gen) endValue(x *ast.End) (ir.Bank, int32) {
	if len(g.endCtx) == 0 {
		panic(unsupported("'end' outside a subscript"))
	}
	ctx := g.endCtx[len(g.endCtx)-1]
	d := g.newReg(ir.BankI)
	switch {
	case ctx.ndims == 1:
		g.emit(ir.Instr{Op: ir.OpVNumel, A: d, B: ctx.baseReg})
	case x.Dim == 0:
		g.emit(ir.Instr{Op: ir.OpVRows, A: d, B: ctx.baseReg})
	default:
		g.emit(ir.Instr{Op: ir.OpVCols, A: d, B: ctx.baseReg})
	}
	return ir.BankI, d
}

type endCtx struct {
	baseReg int32
	ndims   int
}

// exprWithEnd compiles a subscript expression with 'end' bound to the
// base of call.
func (g *gen) exprWithEnd(e ast.Expr, call *ast.Call) (ir.Bank, int32) {
	base, ok := g.vars[call.Name]
	if !ok || base.bank != ir.BankV {
		return g.expr(e)
	}
	g.endCtx = append(g.endCtx, endCtx{baseReg: base.reg, ndims: len(call.Args)})
	defer func() { g.endCtx = g.endCtx[:len(g.endCtx)-1] }()
	return g.expr(e)
}
