package codegen

import (
	"math"
	"repro/internal/ast"
	"repro/internal/ir"
	"repro/internal/types"
)

func (g *gen) stmts(list []ast.Stmt) {
	for _, s := range list {
		g.stmt(s)
	}
}

func (g *gen) stmt(s ast.Stmt) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		b, r := g.expr(x.X)
		if ans, ok := g.vars["ans"]; ok {
			if b == ir.BankV && g.isVarReg(r) {
				// ans aliases a variable: mark shared so indexed writes
				// through either binding copy first.
				g.emit(ir.Instr{Op: ir.OpVMarkShared, A: r})
			}
			g.move(ans, b, r)
		}

	case *ast.Assign:
		g.assign(x)

	case *ast.If:
		g.ifStmt(x)

	case *ast.While:
		g.whileStmt(x)

	case *ast.For:
		g.forStmt(x)

	case *ast.Switch:
		g.switchStmt(x)

	case *ast.Break:
		if len(g.breakPatches) == 0 {
			panic(unsupported("break outside a loop"))
		}
		at := g.emit(ir.Instr{Op: ir.OpJmp})
		top := len(g.breakPatches) - 1
		g.breakPatches[top] = append(g.breakPatches[top], at)

	case *ast.Continue:
		if len(g.continuePatches) == 0 {
			panic(unsupported("continue outside a loop"))
		}
		at := g.emit(ir.Instr{Op: ir.OpJmp})
		top := len(g.continuePatches) - 1
		g.continuePatches[top] = append(g.continuePatches[top], at)

	case *ast.Return:
		at := g.emit(ir.Instr{Op: ir.OpJmp})
		g.returnPatches = append(g.returnPatches, at)

	case *ast.Global:
		panic(unsupported("global in compiled function"))
	case *ast.Clear:
		panic(unsupported("clear in compiled function"))
	default:
		panic(unsupported("statement %T", s))
	}
}

// move stores a value into a variable slot with conversion. For V-class
// targets the value is moved by reference; callers that need value
// semantics (B = A) emit OpVClone instead. A V-class move from a fresh
// temporary uses swap semantics: the temp register inherits the
// variable's old buffer, which the instruction that next defines the
// temp — on the following loop iteration — finds as its displaced
// destination and builds its result in (the paper's pre-allocated
// temporaries; DESIGN §10). A scalar value that the instruction just
// emitted computed into a temporary is not moved at all: the instruction
// writes the destination (retarget) — so r is consumed, and a caller that
// goes on reading a register it has just created and defined must copy it
// itself.
func (g *gen) move(dst slot, b ir.Bank, r int32) {
	cv := g.to(dst.bank, b, r)
	if cv == dst.reg || dst.bank != ir.BankV && g.retarget(dst.bank, cv, dst.reg) {
		return
	}
	switch dst.bank {
	case ir.BankF:
		g.emit(ir.Instr{Op: ir.OpFMov, A: dst.reg, B: cv})
	case ir.BankI:
		g.emit(ir.Instr{Op: ir.OpIMov, A: dst.reg, B: cv})
	case ir.BankC:
		g.emit(ir.Instr{Op: ir.OpCMov, A: dst.reg, B: cv})
	default:
		if g.isVarReg(cv) {
			g.emit(ir.Instr{Op: ir.OpVMov, A: dst.reg, B: cv})
		} else {
			g.emit(ir.Instr{Op: ir.OpVMovSwap, A: dst.reg, B: cv})
		}
	}
}

// isVarReg reports whether a V register is a variable's home slot (as
// opposed to an expression temporary).
func (g *gen) isVarReg(r int32) bool {
	return int(r) < len(g.varV) && g.varV[r]
}

// consumed builds the mat.Donors.Consumed mask of an instruction whose
// V operands are regs: bit k is set when operand k is an expression
// temporary. A temporary is defined by one instruction and read by one,
// so after the instruction that reads it nothing refers to its value
// and that instruction may overwrite it.
func (g *gen) consumed(regs ...int32) uint32 {
	var mask uint32
	for k, r := range regs {
		if !g.isVarReg(r) {
			mask |= 1 << k
		}
	}
	return mask
}

func (g *gen) assign(x *ast.Assign) {
	if len(x.LHS) > 1 {
		g.multiAssign(x)
		return
	}
	switch lhs := x.LHS[0].(type) {
	case *ast.Ident:
		dst, ok := g.vars[lhs.Name]
		if !ok {
			panic(unsupported("assignment to unknown variable %s", lhs.Name))
		}
		b, r := g.expr(x.RHS)
		if dst.bank == ir.BankV && b == ir.BankV {
			// Value semantics: copying a variable must not alias it.
			if _, isVar := x.RHS.(*ast.Ident); isVar {
				g.emit(ir.Instr{Op: ir.OpVClone, A: dst.reg, B: r})
				return
			}
		}
		g.move(dst, b, r)

	case *ast.Call:
		g.indexedAssign(lhs, x.RHS)

	default:
		panic(unsupported("assignment target %T", lhs))
	}
}

func (g *gen) multiAssign(x *ast.Assign) {
	call, ok := x.RHS.(*ast.Call)
	if !ok {
		panic(unsupported("multi-assignment from non-call"))
	}
	nout := len(x.LHS)
	var outs []int32
	switch call.Kind {
	case ast.Builtin:
		outs = g.emitBuiltin(call, nout)
	case ast.UserFunc:
		outs = g.emitUserCall(call, nout, ir.BankV)
	default:
		panic(unsupported("multi-assignment from %v", call.Kind))
	}
	for i, l := range x.LHS {
		switch lhs := l.(type) {
		case *ast.Ident:
			dst, ok := g.vars[lhs.Name]
			if !ok {
				panic(unsupported("assignment to unknown variable %s", lhs.Name))
			}
			g.move(dst, ir.BankV, outs[i])
		case *ast.Call:
			g.indexedAssignFromReg(lhs, ir.BankV, outs[i])
		default:
			panic(unsupported("multi-assignment target %T", l))
		}
	}
}

// indexedAssign compiles A(subs...) = rhs.
func (g *gen) indexedAssign(lhs *ast.Call, rhs ast.Expr) {
	base, ok := g.vars[lhs.Name]
	if !ok || base.bank != ir.BankV {
		panic(unsupported("indexed assignment to non-array %s", lhs.Name))
	}
	baseT := g.baseTypeOf(lhs)

	// Typed store path: scalar rhs, scalar subscripts, real data.
	if g.typedStorePossible(lhs, rhs, baseT) {
		rb, rr := g.expr(rhs)
		g.emitTypedStore(lhs, base, baseT, g.toF(rb, rr))
		return
	}
	rb, rr := g.expr(rhs)
	g.indexedAssignFromReg(lhs, rb, rr)
}

func (g *gen) indexedAssignFromReg(lhs *ast.Call, rb ir.Bank, rr int32) {
	base, ok := g.vars[lhs.Name]
	if !ok || base.bank != ir.BankV {
		panic(unsupported("indexed assignment to non-array %s", lhs.Name))
	}
	rv := g.toV(rb, rr)
	args := g.boxedSubscripts(lhs)
	aux := make([]int32, 0, len(args)+1)
	aux = append(aux, int32(len(args)))
	aux = append(aux, args...)
	at := g.prog.AddAux(aux...)
	g.emit(ir.Instr{Op: ir.OpGAssign, A: base.reg, C: at, D: rv})
}

// boxedSubscripts compiles each subscript into a V register; colons
// load the colon marker constant.
func (g *gen) boxedSubscripts(call *ast.Call) []int32 {
	out := make([]int32, len(call.Args))
	for i, a := range call.Args {
		if _, isColon := a.(*ast.Colon); isColon {
			d := g.newReg(ir.BankV)
			g.emit(ir.Instr{Op: ir.OpVConst, A: d, B: g.vconst(VConst{IsColon: true})})
			out[i] = d
			continue
		}
		b, r := g.exprWithEnd(a, call)
		out[i] = g.toV(b, r)
	}
	return out
}

// --- control flow -------------------------------------------------------------

// condFalsePatches compiles a branch that jumps when cond is false,
// returning instruction indices whose C field needs the target.
func (g *gen) condFalsePatches(cond ast.Expr) []int {
	// Fused relational compare-and-branch on typed scalars.
	if bin, ok := cond.(*ast.Binary); ok && bin.Op.IsRelational() {
		if at, ok := g.absCompare(bin); ok {
			return []int{at}
		}
		lt, rt := g.annOf(bin.L), g.annOf(bin.R)
		if lt.IsScalar() && rt.IsScalar() &&
			types.LeqI(lt.I, types.IReal) && types.LeqI(rt.I, types.IReal) {
			lb, lr := g.expr(bin.L)
			rb, rr := g.expr(bin.R)
			useI := lb == ir.BankI && rb == ir.BankI
			var a, b int32
			if useI {
				a, b = g.toI(lb, lr), g.toI(rb, rr)
			} else {
				a, b = g.toF(lb, lr), g.toF(rb, rr)
			}
			// Branch on the NEGATION of the condition. Floats use the
			// dedicated negated ops so NaN comparisons behave like
			// MATLAB (any comparison with NaN is false).
			var op ir.Op
			swap := false
			if useI {
				switch bin.Op {
				case ast.OpLt: // !(a<b) == b<=a on integers
					op, swap = ir.OpBrILe, true
				case ast.OpLe:
					op, swap = ir.OpBrILt, true
				case ast.OpGt:
					op, swap = ir.OpBrILe, false
				case ast.OpGe:
					op, swap = ir.OpBrILt, false
				case ast.OpEq:
					op = ir.OpBrINe
				case ast.OpNe:
					op = ir.OpBrIEq
				}
			} else {
				switch bin.Op {
				case ast.OpLt:
					op = ir.OpBrFNLt
				case ast.OpLe:
					op = ir.OpBrFNLe
				case ast.OpGt: // !(a>b) == !(b<a)
					op, swap = ir.OpBrFNLt, true
				case ast.OpGe:
					op, swap = ir.OpBrFNLe, true
				case ast.OpEq:
					op = ir.OpBrFNe
				case ast.OpNe:
					op = ir.OpBrFEq
				}
			}
			if swap {
				a, b = b, a
			}
			at := g.emit(ir.Instr{Op: op, A: a, B: b})
			return []int{at}
		}
	}
	// Short-circuit && splits into two branches.
	if bin, ok := cond.(*ast.Binary); ok && bin.Op == ast.OpAndAnd {
		p1 := g.condFalsePatches(bin.L)
		p2 := g.condFalsePatches(bin.R)
		return append(p1, p2...)
	}
	if bin, ok := cond.(*ast.Binary); ok && bin.Op == ast.OpOrOr {
		// if either true → fall through: jump over the second test.
		truePatches := g.condTruePatches(bin.L)
		falsePatches := g.condFalsePatches(bin.R)
		g.patch(truePatches, g.here())
		return falsePatches
	}
	b, r := g.expr(cond)
	if b == ir.BankV {
		at := g.emit(ir.Instr{Op: ir.OpBrFalseV, A: r})
		return []int{at}
	}
	fr := g.toF(b, r)
	at := g.emit(ir.Instr{Op: ir.OpBrFalseF, A: fr})
	return []int{at}
}

// absCompare emits the branch on the negation of abs(z) OP c, for a
// complex scalar z and a positive literal c on either side whose square
// is normal: one OpBrNCAbs where cabs and an F branch would go, which
// compares re²+im² with c² unless they are too close to call.
func (g *gen) absCompare(bin *ast.Binary) (int, bool) {
	op, side, lit := bin.Op, bin.L, bin.R
	if _, ok := side.(*ast.NumberLit); ok {
		side, lit = bin.R, bin.L
		switch op { // c OP abs(z) is abs(z) OP' c
		case ast.OpLt:
			op = ast.OpGt
		case ast.OpLe:
			op = ast.OpGe
		case ast.OpGt:
			op = ast.OpLt
		case ast.OpGe:
			op = ast.OpLe
		}
	}
	n, isLit := lit.(*ast.NumberLit)
	call, isCall := side.(*ast.Call)
	if !isLit || n.Imag || !isCall || call.Kind != ast.Builtin || call.Name != "abs" || len(call.Args) != 1 {
		return 0, false
	}
	c, c2 := n.Value, n.Value*n.Value
	if !(c > 0 && c2 >= 0x1p-1022 && c2 <= math.MaxFloat64) {
		return 0, false
	}
	at := g.annOf(call.Args[0])
	if !at.IsScalar() || !g.annOf(call).IsScalar() || at.I != types.ICplx {
		return 0, false
	}
	z := g.toC(g.operand(call.Args[0]))
	return g.emit(ir.Instr{Op: ir.OpBrNCAbs, A: z, B: int32(op), Imm: c}), true
}

// condTruePatches emits a jump taken when cond is true.
func (g *gen) condTruePatches(cond ast.Expr) []int {
	b, r := g.expr(cond)
	if b == ir.BankV {
		at := g.emit(ir.Instr{Op: ir.OpBrTrueV, A: r})
		return []int{at}
	}
	fr := g.toF(b, r)
	at := g.emit(ir.Instr{Op: ir.OpBrTrueF, A: fr})
	return []int{at}
}

func (g *gen) patch(patches []int, target int) {
	for _, at := range patches {
		in := &g.prog.Ins[at]
		if in.Op == ir.OpJmp {
			in.A = int32(target)
		} else {
			in.C = int32(target)
		}
	}
}

func (g *gen) ifStmt(x *ast.If) {
	var endPatches []int
	for i, cond := range x.Conds {
		falseP := g.condFalsePatches(cond)
		g.stmts(x.Blocks[i])
		if i < len(x.Conds)-1 || x.Else != nil {
			// (the last block of an if without else falls through)
			endPatches = append(endPatches, g.emit(ir.Instr{Op: ir.OpJmp}))
		}
		g.patch(falseP, g.here())
	}
	if x.Else != nil {
		g.stmts(x.Else)
	}
	g.patch(endPatches, g.here())
}

func (g *gen) whileStmt(x *ast.While) {
	head := g.here()
	falseP := g.condFalsePatches(x.Cond)
	g.pushLoop()
	g.stmts(x.Body)
	contP, brkP := g.popLoop()
	g.patch(contP, g.here())
	g.emit(ir.Instr{Op: ir.OpJmp, A: int32(head)})
	end := g.here()
	g.patch(falseP, end)
	g.patch(brkP, end)
}

func (g *gen) pushLoop() {
	g.breakPatches = append(g.breakPatches, nil)
	g.continuePatches = append(g.continuePatches, nil)
}

func (g *gen) popLoop() (contP, brkP []int) {
	top := len(g.breakPatches) - 1
	brkP = g.breakPatches[top]
	contP = g.continuePatches[top]
	g.breakPatches = g.breakPatches[:top]
	g.continuePatches = g.continuePatches[:top]
	return contP, brkP
}

func (g *gen) switchStmt(x *ast.Switch) {
	subjT := g.annOf(x.Subject)
	if !subjT.IsScalar() || !types.LeqI(subjT.I, types.IReal) {
		panic(unsupported("switch on non-scalar subject"))
	}
	sb, sr := g.expr(x.Subject)
	sf := g.toF(sb, sr)
	var endPatches []int
	for i, cv := range x.CaseVals {
		cb, cr := g.expr(cv)
		cf := g.toF(cb, cr)
		at := g.emit(ir.Instr{Op: ir.OpBrFNe, A: sf, B: cf})
		g.stmts(x.CaseBlks[i])
		j := g.emit(ir.Instr{Op: ir.OpJmp})
		endPatches = append(endPatches, j)
		g.patch([]int{at}, g.here())
	}
	if x.Otherwise != nil {
		g.stmts(x.Otherwise)
	}
	g.patch(endPatches, g.here())
}

func (g *gen) forStmt(x *ast.For) {
	dst, ok := g.vars[x.Var]
	if !ok {
		panic(unsupported("loop variable %s has no slot", x.Var))
	}
	r, isRange := x.Iter.(*ast.Range)
	if isRange {
		loT := g.annOf(r.Lo)
		hiT := g.annOf(r.Hi)
		stepT := types.ScalarOf(types.IInt, types.Const(1))
		if r.Step != nil {
			stepT = g.annOf(r.Step)
		}
		scalarBounds := loT.IsScalar() && hiT.IsScalar() && stepT.IsScalar() &&
			types.LeqI(loT.I, types.IReal) && types.LeqI(hiT.I, types.IReal) && types.LeqI(stepT.I, types.IReal)
		if scalarBounds {
			g.forRange(x, r, loT, stepT, hiT, dst)
			return
		}
	}
	// General form: iterate the columns of a materialized iterand.
	ib, ir0 := g.expr(x.Iter)
	iter := g.toV(ib, ir0)
	cols := g.newReg(ir.BankI)
	g.emit(ir.Instr{Op: ir.OpVCols, A: cols, B: iter})
	k := g.newReg(ir.BankI)
	one := g.prog.IConst(1)
	g.emit(ir.Instr{Op: ir.OpIMov, A: k, B: one})
	head := g.here()
	exit := g.emit(ir.Instr{Op: ir.OpBrILt, A: cols, B: k}) // cols < k → done
	// var = iter(:, k)
	colonReg := g.newReg(ir.BankV)
	g.emit(ir.Instr{Op: ir.OpVConst, A: colonReg, B: g.vconst(VConst{IsColon: true})})
	kBox := g.newReg(ir.BankV)
	g.emit(ir.Instr{Op: ir.OpBoxI, A: kBox, B: k})
	col := g.newReg(ir.BankV)
	aux := g.prog.AddAux(2, colonReg, kBox)
	g.emit(ir.Instr{Op: ir.OpGIndex, A: col, B: iter, C: aux})
	g.move(dst, ir.BankV, col)
	g.pushLoop()
	g.stmts(x.Body)
	contP, brkP := g.popLoop()
	g.patch(contP, g.here())
	g.emit(ir.Instr{Op: ir.OpIAdd, A: k, B: k, C: one})
	g.emit(ir.Instr{Op: ir.OpJmp, A: int32(head)})
	end := g.here()
	g.patch([]int{exit}, end)
	g.patch(brkP, end)
}

// forRange compiles for v = lo:step:hi over typed scalars, in one of two
// ways (DESIGN §19).
//
// An integer range whose step has a known sign is counted in integers:
// the induction register starts at lo, steps by step and stops past hi,
// which is exactly mat.Colon's sequence lo + k*step for k = 0..n (the
// 1e-10 in n's formula is beyond the reach of a step below 2^31). When the
// variable lives in the I bank and the body never assigns it, the
// variable is its own induction register; otherwise a hidden one is
// copied to it at the top of each trip.
//
// Any other range follows mat.Colon's formula to the letter, so compiled
// and interpreted runs agree bit for bit: n = floor((hi-lo)/step + 1e-10)
// computed once in floating point, a hidden counter k = 0..n, and
// v = lo + k*step at the top of each trip.
//
// Either way the range is evaluated once, an empty range leaves the
// variable untouched, and the variable ends at the last value iterated.
func (g *gen) forRange(x *ast.For, r *ast.Range, loT, stepT, hiT types.Type, dst slot) {
	lb, lr := g.expr(r.Lo)
	sb, sr := ir.BankI, g.prog.IConst(1)
	if r.Step != nil {
		sb, sr = g.expr(r.Step)
	}
	hb, hr := g.expr(r.Hi)

	intRange := types.LeqI(loT.I, types.IInt) && types.LeqI(stepT.I, types.IInt) && types.LeqI(hiT.I, types.IInt)
	const maxStep = 1 << 31
	up, down := stepT.R.Lo >= 1 && stepT.R.Hi <= maxStep, stepT.R.Hi <= -1 && stepT.R.Lo >= -maxStep
	if intRange && (up || down) && dst.bank != ir.BankV {
		lo, step, hi := g.toI(lb, lr), g.toI(sb, sr), g.toI(hb, hr)
		own := dst.bank == ir.BankI && !g.assignedIn(x.Body, dst)
		iv := dst.reg
		if !own {
			iv = g.newReg(ir.BankI)
		}
		// The loop reads step and hi on every trip: they must not move.
		step, hi = g.pinned(x, step, iv), g.pinned(x, hi, iv)
		g.countedLoop(x, iv, lo, step, hi, down, own, func() {
			switch {
			case own:
			case dst.bank == ir.BankI:
				// (not move, which may consume its source: see retarget)
				g.emit(ir.Instr{Op: ir.OpIMov, A: dst.reg, B: iv})
			default:
				g.move(dst, ir.BankI, iv) // a conversion
			}
		})
		return
	}

	loF, stepF, hiF := g.toF(lb, lr), g.toF(sb, sr), g.toF(hb, hr)
	zero := g.prog.FConst(0)
	var skips []int
	switch {
	case stepF < 0 && g.prog.ConstF[^stepF] > 0: // a literal step: its sign is known here
		skips = append(skips, g.emit(ir.Instr{Op: ir.OpBrFLt, A: hiF, B: loF}))
	case stepF < 0 && g.prog.ConstF[^stepF] < 0:
		skips = append(skips, g.emit(ir.Instr{Op: ir.OpBrFLt, A: loF, B: hiF}))
	default:
		// step == 0 → empty
		skips = append(skips, g.emit(ir.Instr{Op: ir.OpBrFEq, A: stepF, B: zero}))
		// step > 0 && lo > hi → empty: encoded as two tests
		posTest := g.emit(ir.Instr{Op: ir.OpBrFLe, A: stepF, B: zero}) // step <= 0 → check negative case
		skips = append(skips, g.emit(ir.Instr{Op: ir.OpBrFLt, A: hiF, B: loF}))
		skipNeg := g.emit(ir.Instr{Op: ir.OpJmp})
		g.patch([]int{posTest}, g.here())
		skips = append(skips, g.emit(ir.Instr{Op: ir.OpBrFLt, A: loF, B: hiF}))
		g.patch([]int{skipNeg}, g.here())
	}

	// n = floor((hi-lo)/step + 1e-10); k = 0..n
	_, diff := g.scalarFloatOp(ast.OpSub, hiF, loF)
	_, quot := g.scalarFloatOp(ast.OpDiv, diff, stepF)
	_, sum := g.scalarFloatOp(ast.OpAdd, quot, g.prog.FConst(1e-10))
	fl := g.newReg(ir.BankF)
	g.emit(ir.Instr{Op: ir.OpFMath, A: fl, B: sum, C: g.mathID("floor")})
	n := g.toI(ir.BankF, fl)
	k := g.newReg(ir.BankI)

	intMode := intRange && dst.bank == ir.BankI
	var loI, stepI int32
	if intMode {
		loI, stepI = g.toI(ir.BankF, loF), g.toI(ir.BankF, stepF)
	}
	// n < 0 (a NaN bound) runs no trip, like the interpreter's k <= n.
	g.countedLoop(x, k, g.prog.IConst(0), g.prog.IConst(1), n, false, false, func() {
		if intMode {
			t := g.newReg(ir.BankI)
			g.emit(ir.Instr{Op: ir.OpIMul, A: t, B: k, C: stepI})
			g.emit(ir.Instr{Op: ir.OpIAdd, A: dst.reg, B: loI, C: t})
			return
		}
		t := g.toF(ir.BankI, k)
		if stepF != g.prog.FConst(1) { // k*1 is k, to the bit
			_, t = g.scalarFloatOp(ast.OpMul, t, stepF)
		}
		_, v := g.scalarFloatOp(ast.OpAdd, loF, t)
		g.move(dst, ir.BankF, v)
	})
	g.patch(skips, g.here())
}

// countedLoop emits the loop both lowerings share: iv runs from lo by
// step (negative when down) while it has not passed hi, bind and the body
// run once per value, and the test is at the bottom — a trip costs the
// body plus iadd and one conditional branch. step and hi must hold their
// values for the loop's duration. With fixup the induction register is a
// variable, left at the last value iterated on the normal exit (a break
// leaves it where it is).
//
// The optimising backend's unrolling (cfg.UnrollLoops) replicates the
// body U times in a main loop that runs while U whole trips remain
// (iv <= hi - (U-1)*step), one branch per U trips, ahead of the plain
// loop, which takes the remainder. Bodies with break/continue, and steps
// that are not literals, keep the plain loop alone.
func (g *gen) countedLoop(x *ast.For, iv, lo, step, hi int32, down, fixup bool, bind func()) {
	// past(a, b) branches when a has passed b and returns the branch for
	// patching; of two literals the answer is known here, and is no test
	// or a plain jump. within branches to head when a has not passed b.
	past := func(a, b int32) []int {
		if down {
			a, b = b, a
		}
		switch c := g.prog.ConstI; {
		case a >= 0 || b >= 0:
			return []int{g.emit(ir.Instr{Op: ir.OpBrILt, A: b, B: a})}
		case c[^b] < c[^a]:
			return []int{g.emit(ir.Instr{Op: ir.OpJmp})}
		}
		return nil
	}
	within := func(a, b int32, head int) {
		if down {
			a, b = b, a
		}
		g.emit(ir.Instr{Op: ir.OpBrILe, A: a, B: b, C: int32(head)})
	}
	trip := func() (brkP []int) {
		bind()
		g.pushLoop()
		g.stmts(x.Body)
		contP, brkP := g.popLoop()
		g.patch(contP, g.here())
		g.emit(ir.Instr{Op: ir.OpIAdd, A: iv, B: iv, C: step})
		return brkP
	}

	empty := past(lo, hi)
	if iv != lo {
		g.emit(ir.Instr{Op: ir.OpIMov, A: iv, B: lo})
	}
	var exits []int
	if u := int64(g.cfg.UnrollLoops); u > 1 && step < 0 && !bodyHasJumps(x.Body) {
		hiU := g.intOp(ir.OpISub, hi, g.prog.IConst((u-1)*g.prog.ConstI[^step]))
		toRem := past(lo, hiU) // (iv is lo here)
		main := g.here()
		for ; u > 0; u-- {
			trip()
		}
		within(iv, hiU, main)
		g.patch(toRem, g.here())
		exits = past(iv, hi)
	}
	head := g.here()
	brkP := trip()
	within(iv, hi, head)
	g.patch(exits, g.here())
	if fixup {
		g.emit(ir.Instr{Op: ir.OpISub, A: iv, B: iv, C: step})
	}
	g.patch(append(brkP, empty...), g.here())
}

// assignedIn reports whether a statement of body (at any depth) assigns
// the variable whose home is s.
func (g *gen) assignedIn(body []ast.Stmt, s slot) bool {
	found := false
	is := func(name string) {
		if v, ok := g.vars[name]; ok && v == s {
			found = true
		}
	}
	ast.WalkStmts(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Assign:
			for _, l := range x.LHS {
				switch lhs := l.(type) {
				case *ast.Ident:
					is(lhs.Name)
				case *ast.Call:
					is(lhs.Name)
				}
			}
		case *ast.For:
			is(x.Var)
		case *ast.ExprStmt:
			is("ans")
		}
		return !found
	})
	return found
}

// pinned returns a register that holds r's value for the whole of loop x:
// r itself unless it is the loop's induction register or the home of a
// variable the body assigns, in which case a copy made now.
func (g *gen) pinned(x *ast.For, r, iv int32) int32 {
	if r == iv || r >= 0 && r < g.varRegs[ir.BankI] && g.assignedIn(x.Body, slot{ir.BankI, r}) {
		t := g.newReg(ir.BankI)
		g.emit(ir.Instr{Op: ir.OpIMov, A: t, B: r})
		return t
	}
	return r
}

// bodyHasJumps reports whether a statement list contains break,
// continue or return anywhere (at any nesting depth within this
// function's loops — conservative but cheap), or a loop.
func bodyHasJumps(body []ast.Stmt) bool {
	found := false
	ast.WalkStmts(body, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.Break, *ast.Continue, *ast.Return, *ast.For, *ast.While:
			found = true
		}
		return !found
	})
	return found
}
