package codegen

import (
	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/types"
)

// baseTypeOf returns the inferred type of the base array at an indexing
// site, falling back to the variable's joined type.
func (g *gen) baseTypeOf(call *ast.Call) types.Type {
	if t, ok := g.res.BaseOf(call); ok {
		return t
	}
	if t, ok := g.res.Vars[call.Name]; ok {
		return t
	}
	return types.Top
}

// --- subscript-check removal (paper §2.4) ------------------------------------

// subInBounds reports whether a subscript annotation is provably an
// integer within [1, extent] — the condition for removing the check.
func subInBounds(sub types.Type, minExtent types.Extent) bool {
	if !types.LeqI(sub.I, types.IInt) || !sub.IsScalar() {
		return false
	}
	if sub.R.IsBot() || sub.R.Lo < 1 {
		return false
	}
	if minExtent.IsInf() {
		return true // guaranteed at least ∞ rows can't happen; defensive
	}
	return sub.R.Hi <= float64(minExtent.Int())
}

// minNumel returns the guaranteed element count of a base type.
func minNumel(t types.Type) types.Extent {
	n, ok := t.MinShape.Numel()
	if !ok {
		return types.InfExt
	}
	return types.Fin(n)
}

// typedLoadPossible reports the bank a typed read of call lands in: the
// bank of the access's annotation, F for a real (or narrower) element and
// C for a complex one. The base must be a dense array variable no wider
// than that, and every subscript a real scalar.
func (g *gen) typedLoadPossible(call *ast.Call, baseT types.Type) (ir.Bank, bool) {
	if s, ok := g.vars[call.Name]; !ok || s.bank != ir.BankV {
		return 0, false
	}
	ann := g.annOf(call)
	bank, widest := ir.BankF, types.IReal
	switch {
	case !ann.IsScalar():
		return 0, false
	case types.LeqI(ann.I, types.IReal):
	case types.LeqI(ann.I, types.ICplx):
		bank, widest = ir.BankC, types.ICplx
	default:
		return 0, false
	}
	if !types.LeqI(baseT.I, widest) || baseT.I == types.IBottom || baseT.Sp {
		// Possibly-sparse bases have no dense payload to load from.
		return 0, false
	}
	if len(call.Args) != 1 && len(call.Args) != 2 {
		return 0, false
	}
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Colon:
			return 0, false
		}
		if !g.annOf(a).IsScalar() || !types.LeqI(g.annOf(a).I, types.IReal) {
			return 0, false
		}
	}
	return bank, true
}

// typedStorePossible mirrors typedLoadPossible for stores; the rhs must
// be a real scalar and the base must stay real.
func (g *gen) typedStorePossible(call *ast.Call, rhs ast.Expr, baseT types.Type) bool {
	rt := g.annOf(rhs)
	if !rt.IsScalar() || !types.LeqI(rt.I, types.IReal) || rt.Sp {
		return false
	}
	if baseT.Sp {
		// Storing into a possibly-sparse base goes through the generic
		// path, which densifies in place first.
		return false
	}
	if !types.LeqI(baseT.I, types.IReal) {
		// An undefined base (⊥) is fine: the store creates a real array.
		if baseT.I != types.IBottom {
			return false
		}
	}
	if len(call.Args) != 1 && len(call.Args) != 2 {
		return false
	}
	for _, a := range call.Args {
		switch a.(type) {
		case *ast.Colon:
			return false
		}
		if !g.annOf(a).IsScalar() || !types.LeqI(g.annOf(a).I, types.IReal) {
			return false
		}
	}
	return true
}

// Opcode forms of a typed element access, by subscript count: proven in
// bounds, proven integer only (subscripts in the I bank), neither. Loads
// come in the two banks a read can land in.
var (
	loadForms = map[ir.Bank][2][3]ir.Op{
		ir.BankF: {{ir.OpFLd1U, ir.OpFLd1I, ir.OpFLd1}, {ir.OpFLd2U, ir.OpFLd2I, ir.OpFLd2}},
		ir.BankC: {{ir.OpCLd1U, ir.OpCLd1I, ir.OpCLd1}, {ir.OpCLd2U, ir.OpCLd2I, ir.OpCLd2}},
	}
	storeForms = [2][3]ir.Op{{ir.OpFSt1U, ir.OpFSt1I, ir.OpFSt1}, {ir.OpFSt2U, ir.OpFSt2I, ir.OpFSt2}}
)

// subscripts compiles the subscripts of a typed access to base and picks
// the access's form: unchecked I registers when every subscript is
// provably in bounds (§2.4), I registers with the bounds check kept when
// every subscript is at least in the I bank — the bank proves it an
// integer, so no conversion is spent on having the access re-derive
// that — and checked F registers otherwise.
func (g *gen) subscripts(call *ast.Call, baseT types.Type, forms [2][3]ir.Op) (ir.Op, [2]int32) {
	n := len(call.Args)
	ext := [2]types.Extent{minNumel(baseT)}
	if n == 2 {
		ext = [2]types.Extent{baseT.MinShape.R, baseT.MinShape.C}
	}
	var regs [2]int32
	var banks [2]ir.Bank
	inBounds, inI := true, true
	for k, a := range call.Args {
		b, r := g.exprWithEnd(a, call)
		if subInBounds(g.annOf(a), ext[k]) {
			b, r = ir.BankI, g.toI(b, r)
		} else {
			inBounds = false
		}
		regs[k], banks[k] = r, b
		inI = inI && b == ir.BankI
	}
	switch {
	case inBounds:
		return forms[n-1][0], regs
	case inI:
		return forms[n-1][1], regs
	}
	for k := 0; k < n; k++ {
		regs[k] = g.toF(banks[k], regs[k])
	}
	return forms[n-1][2], regs
}

// emitTypedLoad compiles A(i) / A(i,j) element reads into a register of
// bank (typedLoadPossible's).
func (g *gen) emitTypedLoad(call *ast.Call, base slot, baseT types.Type, bank ir.Bank) (ir.Bank, int32) {
	op, r := g.subscripts(call, baseT, loadForms[bank])
	d := g.newReg(bank)
	g.emit(ir.Instr{Op: op, A: d, B: base.reg, C: r[0], D: r[1]})
	return bank, d
}

// operand compiles e for a consumer that never boxes it unchanged:
// complex arithmetic, abs, real, imag or an elementary math function.
// Only here does an element read of a complex array land in a C register:
// a box made from one would demote a zero imaginary part, where the
// interpreter's read keeps the array's kind (kinds.go).
func (g *gen) operand(e ast.Expr) (ir.Bank, int32) {
	if x, ok := e.(*ast.Call); ok && x.Kind == ast.Variable {
		baseT := g.baseTypeOf(x)
		if bank, ok := g.typedLoadPossible(x, baseT); ok {
			return g.emitTypedLoad(x, g.vars[x.Name], baseT, bank)
		}
	}
	return g.expr(e)
}

// emitTypedStore compiles A(i) = f / A(i,j) = f stores; checked stores
// implement MATLAB's growth semantics.
func (g *gen) emitTypedStore(call *ast.Call, base slot, baseT types.Type, f int32) {
	op, r := g.subscripts(call, baseT, storeForms)
	if len(call.Args) == 1 {
		g.emit(ir.Instr{Op: op, A: base.reg, B: r[0], C: f})
	} else {
		g.emit(ir.Instr{Op: op, A: base.reg, B: r[0], C: r[1], D: f})
	}
}

// --- calls ---------------------------------------------------------------------

func (g *gen) call(x *ast.Call) (ir.Bank, int32) {
	switch x.Kind {
	case ast.Variable:
		base := g.vars[x.Name]
		baseT := g.baseTypeOf(x)
		if bank, ok := g.typedLoadPossible(x, baseT); ok && bank == ir.BankF {
			return g.emitTypedLoad(x, base, baseT, bank)
		}
		if base.bank != ir.BankV {
			panic(unsupported("indexing a scalar-classed variable %s", x.Name))
		}
		// Generic boxed indexing.
		args := g.boxedSubscripts(x)
		aux := make([]int32, 0, len(args)+1)
		aux = append(aux, int32(len(args)))
		aux = append(aux, args...)
		at := g.prog.AddAux(aux...)
		d := g.newReg(ir.BankV)
		g.emit(ir.Instr{Op: ir.OpGIndex, A: d, B: base.reg, C: at})
		return ir.BankV, d

	case ast.Builtin:
		return g.builtinCall(x)

	case ast.UserFunc:
		bank := g.resultBank(x)
		return bank, g.emitUserCall(x, 1, bank)[0]
	}
	panic(unsupported("call kind %v for %s", x.Kind, x.Name))
}

// builtinCall applies the scalar-inlining selection rules before
// falling back to the generic GBuiltin dispatch.
func (g *gen) builtinCall(x *ast.Call) (ir.Bank, int32) {
	ann := g.annOf(x)
	name := x.Name

	// A vector math builtin may root a fused elementwise tree
	// (exp(a + b) runs as one loop instead of two passes).
	if g.cfg.FuseElemwise && !ann.IsScalar() {
		if fb, fr, ok := g.tryFuseExpr(x); ok {
			return fb, fr
		}
	}

	// Inlined elementary math on typed scalars (§2.6.1: "MaJIC inlines
	// scalar arithmetic and logical operations, elementary math
	// functions...").
	if len(x.Args) == 1 {
		at := g.annOf(x.Args[0])
		if at.IsScalar() && ann.IsScalar() {
			if _, isMath := builtins.ScalarMathFunc(name); isMath || name == "sqrt" || name == "exp" || name == "log" {
				if types.LeqI(at.I, types.IReal) && types.LeqI(ann.I, types.IReal) {
					b, r := g.expr(x.Args[0])
					f := g.toF(b, r)
					d := g.newReg(ir.BankF)
					g.emit(ir.Instr{Op: ir.OpFMath, A: d, B: f, C: g.mathID(name)})
					if types.LeqI(ann.I, types.IInt) {
						di := g.newReg(ir.BankI)
						g.emit(ir.Instr{Op: ir.OpFtoI, A: di, B: d})
						return ir.BankI, di
					}
					return ir.BankF, d
				}
				if types.LeqI(at.I, types.ICplx) && cmathSupported(name) {
					b, r := g.operand(x.Args[0])
					c := g.toC(b, r)
					d := g.newReg(ir.BankC)
					g.emit(ir.Instr{Op: ir.OpCMath, A: d, B: c, C: g.mathID(name)})
					return ir.BankC, d
				}
			}
			// abs of a complex scalar → F
			if name == "abs" && types.LeqI(at.I, types.ICplx) {
				b, r := g.operand(x.Args[0])
				c := g.toC(b, r)
				d := g.newReg(ir.BankF)
				g.emit(ir.Instr{Op: ir.OpCAbs, A: d, B: c})
				return ir.BankF, d
			}
			switch name {
			case "real", "imag", "conj", "angle":
				compile := g.expr
				if name == "real" || name == "imag" {
					compile = g.operand
				}
				b, r := compile(x.Args[0])
				if types.LeqI(at.I, types.IReal) && b != ir.BankV {
					switch name {
					case "real", "conj":
						return b, r
					case "imag":
						return ir.BankF, g.prog.FConst(0)
					}
				}
				if types.LeqI(at.I, types.ICplx) && b != ir.BankV {
					c := g.toC(b, r)
					switch name {
					case "real":
						d := g.newReg(ir.BankF)
						g.emit(ir.Instr{Op: ir.OpCReal, A: d, B: c})
						return ir.BankF, d
					case "imag":
						d := g.newReg(ir.BankF)
						g.emit(ir.Instr{Op: ir.OpCImag, A: d, B: c})
						return ir.BankF, d
					case "conj":
						d := g.newReg(ir.BankC)
						g.emit(ir.Instr{Op: ir.OpCConj, A: d, B: c})
						return ir.BankC, d
					}
				}
				// fall through to generic path with the value boxed
				v := g.toV(b, r)
				return ir.BankV, g.emitBuiltinRegs(name, []int32{v}, 1)[0]
			}
		}
	}

	if b, r, ok := g.scalarRand(name, len(x.Args), ann); ok {
		return b, r
	}

	// mod/rem on typed scalars.
	if (name == "mod" || name == "rem") && len(x.Args) == 2 {
		a0, a1 := g.annOf(x.Args[0]), g.annOf(x.Args[1])
		if a0.IsScalar() && a1.IsScalar() && types.LeqI(a0.I, types.IReal) && types.LeqI(a1.I, types.IReal) {
			b0, r0 := g.expr(x.Args[0])
			b1, r1 := g.expr(x.Args[1])
			// Integer mod only where its result is an int: a negative
			// dividend's −0 needs the F path.
			if name == "mod" && b0 == ir.BankI && b1 == ir.BankI && types.LeqI(ann.I, types.IInt) {
				d := g.newReg(ir.BankI)
				g.emit(ir.Instr{Op: ir.OpIMod, A: d, B: r0, C: r1})
				return ir.BankI, d
			}
			f0, f1 := g.toF(b0, r0), g.toF(b1, r1)
			d := g.newReg(ir.BankF)
			op := ir.OpFMod
			if name == "rem" {
				op = ir.OpFRem
			}
			g.emit(ir.Instr{Op: op, A: d, B: f0, C: f1})
			if types.LeqI(ann.I, types.IInt) && ann.IsScalar() {
				di := g.newReg(ir.BankI)
				g.emit(ir.Instr{Op: ir.OpFtoI, A: di, B: d})
				return ir.BankI, di
			}
			return ir.BankF, d
		}
	}

	// zeros/ones with typed scalar sizes → direct allocation.
	if (name == "zeros" || name == "ones") && len(x.Args) >= 1 && len(x.Args) <= 2 {
		allIntScalar := true
		for _, a := range x.Args {
			at := g.annOf(a)
			if !at.IsScalar() || !types.LeqI(at.I, types.IReal) {
				allIntScalar = false
			}
		}
		if allIntScalar {
			var r1, r2 int32
			b, r := g.expr(x.Args[0])
			r1 = g.toI(b, r)
			if len(x.Args) == 2 {
				b2, rr := g.expr(x.Args[1])
				r2 = g.toI(b2, rr)
			} else {
				r2 = r1
			}
			d := g.newReg(ir.BankV)
			fill := 0.0
			if name == "ones" {
				fill = 1.0
			}
			g.emit(ir.Instr{Op: ir.OpVNewZeros, A: d, B: r1, C: r2, Imm: fill})
			return ir.BankV, d
		}
	}

	// size/length/numel on array variables → direct dimension reads.
	if (name == "size" || name == "length" || name == "numel") && len(x.Args) >= 1 {
		if id, ok := x.Args[0].(*ast.Ident); ok && g.isVarUse(id) {
			if s, ok := g.vars[id.Name]; ok && s.bank == ir.BankV {
				switch {
				case name == "numel" && len(x.Args) == 1:
					d := g.newReg(ir.BankI)
					g.emit(ir.Instr{Op: ir.OpVNumel, A: d, B: s.reg})
					return ir.BankI, d
				case name == "size" && len(x.Args) == 2:
					if c, ok := g.annOf(x.Args[1]).R.IsConst(); ok && (c == 1 || c == 2) {
						d := g.newReg(ir.BankI)
						op := ir.OpVRows
						if c == 2 {
							op = ir.OpVCols
						}
						g.emit(ir.Instr{Op: op, A: d, B: s.reg})
						return ir.BankI, d
					}
				}
			}
		}
	}

	// Generic builtin dispatch.
	outs := g.emitBuiltin(x, 1)
	d := outs[0]
	// Unbox typed scalar results so downstream code stays unboxed — but
	// never a possibly-sparse scalar (e.g. sparse(1,1)), whose
	// representation must survive for issparse/nnz.
	if ann.IsScalar() && !ann.Sp {
		switch {
		case types.LeqI(ann.I, types.IInt):
			di := g.newReg(ir.BankI)
			g.emit(ir.Instr{Op: ir.OpUnboxI, A: di, B: d})
			return ir.BankI, di
		case types.LeqI(ann.I, types.IReal):
			df := g.newReg(ir.BankF)
			g.emit(ir.Instr{Op: ir.OpUnboxF, A: df, B: d})
			return ir.BankF, df
		}
	}
	return ir.BankV, d
}

// scalarRand selects one typed instruction for a draw of a single
// deviate — rand or randn without arguments, annotated a real scalar —
// from the generator the boxed builtin draws from, so the stream and
// every value are the same and nothing is allocated.
func (g *gen) scalarRand(name string, nargs int, ann types.Type) (ir.Bank, int32, bool) {
	if name != "rand" && name != "randn" || nargs != 0 || !ann.IsScalar() || !types.LeqI(ann.I, types.IReal) {
		return 0, 0, false
	}
	d := g.newReg(ir.BankF)
	in := ir.Instr{Op: ir.OpFRand, A: d}
	if name == "randn" {
		in.B = 1
	}
	g.emit(in)
	return ir.BankF, d, true
}

func cmathSupported(name string) bool {
	switch name {
	case "sqrt", "exp", "log", "sin", "cos", "tan", "sinh", "cosh", "tanh":
		return true
	}
	return false
}

// emitBuiltin compiles a builtin call through the generic dispatcher.
func (g *gen) emitBuiltin(x *ast.Call, nout int) []int32 {
	args := make([]int32, len(x.Args))
	for i, a := range x.Args {
		if _, isColon := a.(*ast.Colon); isColon {
			panic(unsupported("':' argument to builtin %s", x.Name))
		}
		b, r := g.expr(a)
		args[i] = g.toV(b, r)
	}
	return g.emitBuiltinRegs(x.Name, args, nout)
}

func (g *gen) emitBuiltinRegs(name string, args []int32, nout int) []int32 {
	outs := make([]int32, nout)
	aux := make([]int32, 0, nout+len(args)+3)
	aux = append(aux, g.builtinID(name), int32(nout))
	for i := range outs {
		outs[i] = g.newReg(ir.BankV)
		aux = append(aux, outs[i])
	}
	aux = append(aux, int32(len(args)))
	aux = append(aux, args...)
	at := g.prog.AddAux(aux...)
	g.emit(ir.Instr{Op: ir.OpGBuiltin, A: at})
	return outs
}

// emitUserCall compiles a call to another user function, dispatched
// through the engine's repository (which may run compiled code or fall
// back to the interpreter). An argument that is in an F or I register
// crosses the call in it: staged, tagged with its bank, never boxed — the
// callee's parameter binding converts or boxes if its side needs that.
// Staging comes after every argument is evaluated, because an argument
// may itself contain a call and the call slots are the frame's, not the
// call's. first is the bank the first result is wanted in; see
// emitUserCallRegs.
func (g *gen) emitUserCall(x *ast.Call, nout int, first ir.Bank) []int32 {
	args := make([]slot, len(x.Args))
	for i, a := range x.Args {
		if _, isColon := a.(*ast.Colon); isColon {
			panic(unsupported("':' argument to function %s", x.Name))
		}
		b, r := g.expr(a)
		if b == ir.BankC {
			b, r = ir.BankV, g.toV(ir.BankC, r)
		}
		args[i] = slot{b, r}
	}
	return g.emitUserCallRegs(x.Name, args, nout, first)
}

// resultBank is the bank a user call's first result continues in: I or F
// when inference typed the call as a dense integer or real scalar, V
// otherwise. Only a callee's return summary (infer.Opts.UserFnType)
// types a user call, and a summary is a prediction — the callee may be
// redefined, or answer from another entry — so a result taken in a
// register is fetched behind a guard: one that is not such a scalar
// abandons the activation instead of faulting.
func (g *gen) resultBank(x *ast.Call) ir.Bank {
	ann := g.annOf(x)
	switch {
	case !infer.TypedCall(ann):
		return ir.BankV
	case types.LeqI(ann.I, types.IInt):
		return ir.BankI
	}
	return ir.BankF
}

// stage puts s, when it is an F or I register, in call slot k of the
// frame as it is — unboxed, tagged with its bank — and reports whether it
// did: whoever takes the slot (a callee's parameter binding, a caller's
// fetch, the boxed boundary) converts or boxes if its side needs that.
func (g *gen) stage(k int32, s slot) bool {
	switch s.bank {
	case ir.BankF:
		g.emit(ir.Instr{Op: ir.OpStageF, A: k, B: s.reg})
	case ir.BankI:
		g.emit(ir.Instr{Op: ir.OpStageI, A: k, B: s.reg})
	default:
		return false
	}
	return true
}

// emitUserCallRegs emits the call proper and returns the registers its
// nout results arrive in: V registers, except that the first is an I or F
// register when first says so — the call then leaves that result where
// the callee put it and a guarded fetch moves it into the register.
func (g *gen) emitUserCallRegs(name string, args []slot, nout int, first ir.Bank) []int32 {
	outs := make([]int32, nout)
	aux := make([]int32, 0, nout+len(args)+3)
	aux = append(aux, g.callID(name), int32(nout))
	for i := range outs {
		if i == 0 && first != ir.BankV {
			aux = append(aux, ir.Staged)
			continue
		}
		outs[i] = g.newReg(ir.BankV)
		aux = append(aux, outs[i])
	}
	aux = append(aux, int32(len(args)))
	for i, a := range args {
		if g.stage(int32(i), a) {
			aux = append(aux, ir.Staged)
		} else {
			aux = append(aux, a.reg)
		}
	}
	at := g.prog.AddAux(aux...)
	g.emit(ir.Instr{Op: ir.OpCallUser, A: at})
	switch first {
	case ir.BankF:
		outs[0] = g.newReg(ir.BankF)
		g.emit(ir.Instr{Op: ir.OpFetchF, A: outs[0]})
	case ir.BankI:
		outs[0] = g.newReg(ir.BankI)
		g.emit(ir.Instr{Op: ir.OpFetchI, A: outs[0]})
	}
	return outs
}

// --- matrix literals --------------------------------------------------------------

func (g *gen) matrixLit(x *ast.Matrix) (ir.Bank, int32) {
	ann := g.annOf(x)
	// Fully unrolled construction for small exactly-shaped literals of
	// real scalars ("vector concatenation completely unrolled").
	if rows, cols, ok := ann.ExactShape(); ok && rows*cols <= maxUnrollElems &&
		types.LeqI(ann.I, types.IReal) && rows == len(x.Rows) && rows*cols > 0 {
		allScalar := true
		for _, row := range x.Rows {
			if len(row) != cols {
				allScalar = false
				break
			}
			for _, e := range row {
				at := g.annOf(e)
				if !at.IsScalar() || !types.LeqI(at.I, types.IReal) {
					allScalar = false
					break
				}
			}
		}
		if allScalar {
			// Compute all elements first, then allocate and store, so a
			// literal like [v(2) v(1)] never reads a half-written dst.
			elems := make([]int32, 0, rows*cols)
			for _, row := range x.Rows {
				for _, e := range row {
					b, r := g.expr(e)
					elems = append(elems, g.toF(b, r))
				}
			}
			d := g.newReg(ir.BankV)
			// VEnsure recycles the buffer this temp inherited from the
			// previous iteration's swap (pre-allocated temporaries).
			g.emit(ir.Instr{Op: ir.OpVEnsure, A: d, B: g.prog.IConst(int64(rows)), C: g.prog.IConst(int64(cols))})
			k := 0
			for ri := 0; ri < rows; ri++ {
				for ci := 0; ci < cols; ci++ {
					g.emit(ir.Instr{Op: ir.OpFSt1U, A: d, B: g.prog.IConst(int64(ci*rows + ri + 1)), C: elems[k]})
					k++
				}
			}
			return ir.BankV, d
		}
	}
	// Generic concatenation.
	aux := []int32{int32(len(x.Rows))}
	for _, row := range x.Rows {
		aux = append(aux, int32(len(row)))
		for _, e := range row {
			b, r := g.expr(e)
			aux = append(aux, g.toV(b, r))
		}
	}
	at := g.prog.AddAux(aux...)
	d := g.newReg(ir.BankV)
	g.emit(ir.Instr{Op: ir.OpGCat, A: d, B: at})
	return ir.BankV, d
}

// --- small-vector unrolling ---------------------------------------------------------

// tryUnrollElemwise unrolls elementwise binary operations on small
// exactly-shaped real operands into straight-line scalar code.
func (g *gen) tryUnrollElemwise(x *ast.Binary) (ir.Bank, int32, bool) {
	switch x.Op {
	case ast.OpAdd, ast.OpSub, ast.OpEMul, ast.OpEDiv:
	case ast.OpMul, ast.OpDiv:
		// * and / unroll only when one side is scalar (elementwise then).
		if !g.annOf(x.L).IsScalar() && !g.annOf(x.R).IsScalar() {
			return 0, 0, false
		}
	default:
		return 0, 0, false
	}
	ann := g.annOf(x)
	rows, cols, ok := ann.ExactShape()
	n := rows * cols
	if !ok || n == 0 || n > maxUnrollElems || !types.LeqI(ann.I, types.IReal) || ann.Sp {
		return 0, 0, false
	}
	lt, rt := g.annOf(x.L), g.annOf(x.R)
	if !types.LeqI(lt.I, types.IReal) || !types.LeqI(rt.I, types.IReal) || lt.Sp || rt.Sp {
		return 0, 0, false
	}
	okShape := func(t types.Type) bool {
		if t.IsScalar() {
			return true
		}
		r, c, ok := t.ExactShape()
		return ok && r == rows && c == cols
	}
	if !okShape(lt) || !okShape(rt) {
		return 0, 0, false
	}

	lb, lr := g.expr(x.L)
	rb, rr := g.expr(x.R)

	// Element accessors: scalars broadcast, arrays load unchecked.
	loadElem := func(t types.Type, b ir.Bank, reg int32, k int) int32 {
		if t.IsScalar() {
			return g.toF(b, reg)
		}
		d := g.newReg(ir.BankF)
		g.emit(ir.Instr{Op: ir.OpFLd1U, A: d, B: g.toV(b, reg), C: g.prog.IConst(int64(k + 1))})
		return d
	}
	// Broadcast scalars once.
	var lScalar, rScalar int32 = -1, -1
	if lt.IsScalar() {
		lScalar = g.toF(lb, lr)
	}
	if rt.IsScalar() {
		rScalar = g.toF(rb, rr)
	}
	results := make([]int32, n)
	for k := 0; k < n; k++ {
		var a, b int32
		if lScalar >= 0 {
			a = lScalar
		} else {
			a = loadElem(lt, lb, lr, k)
		}
		if rScalar >= 0 {
			b = rScalar
		} else {
			b = loadElem(rt, rb, rr, k)
		}
		_, res := g.scalarFloatOp(binOpNormalize(x.Op), a, b)
		results[k] = res
	}
	d := g.newReg(ir.BankV)
	// VEnsure recycles the previous iteration's buffer (swap semantics
	// in move) — the paper's pre-allocated small temporaries.
	g.emit(ir.Instr{Op: ir.OpVEnsure, A: d, B: g.prog.IConst(int64(rows)), C: g.prog.IConst(int64(cols))})
	for k := 0; k < n; k++ {
		g.emit(ir.Instr{Op: ir.OpFSt1U, A: d, B: g.prog.IConst(int64(k + 1)), C: results[k]})
	}
	return ir.BankV, d, true
}

// binOpNormalize maps * and / with a scalar operand onto their
// elementwise versions for the unrolled scalar kernel.
func binOpNormalize(op ast.BinOp) ast.BinOp {
	switch op {
	case ast.OpMul:
		return ast.OpEMul
	case ast.OpDiv:
		return ast.OpEDiv
	}
	return op
}

// --- dgemv fusion -----------------------------------------------------------------

// tryGEMV recognizes y ± A*x and A*x patterns over real matrices and
// vectors, emitting a single fused dgemv call (§2.6.1: "expressions
// like a*X+b*C*Y are transformed into a single call to dgemv").
func (g *gen) tryGEMV(x *ast.Binary) (ir.Bank, int32, bool) {
	mul, other, alpha, beta, ok := g.matchGEMV(x)
	if !ok {
		return 0, 0, false
	}
	// OpGEMV: A=dst, B=aux index; aux = [Areg, xreg, yreg|-1, betaCode];
	// Imm carries alpha, C the transposed-operand flag. betaCode 0 → β=0,
	// 1 → β=1, -1 → β=-1. A real matrix transposed on the left is read
	// in place (A'*x), not copied first.
	left, flag := mul.L, ir.GEMVNoTrans
	if t, ok := left.(*ast.Transpose); ok && g.realMatrix(t.X) {
		left, flag = t.X, ir.GEMVTrans
		if t.Conjugate {
			flag = ir.GEMVConjTrans
		}
	}
	ab, ar := g.expr(left)
	av := g.toV(ab, ar)
	xb, xr := g.expr(mul.R)
	xv := g.toV(xb, xr)
	var yv int32 = -1
	if other != nil {
		yb, yr := g.expr(other)
		yv = g.toV(yb, yr)
	}
	d := g.newReg(ir.BankV)
	aux := g.prog.AddAux(av, xv, yv, int32(betaCode(beta)))
	g.emit(ir.Instr{Op: ir.OpGEMV, A: d, B: aux, C: flag, Imm: alpha})
	return ir.BankV, d, true
}

// matchGEMV reports whether x matches one of the dgemv patterns and how
// (mul is the A*x product, other the ± y operand). It is also consulted
// by the elementwise fuser, which leaves matching subtrees alone so ±y
// keeps folding into dgemv's beta with the same accumulation order as
// the unfused pipeline.
func (g *gen) matchGEMV(x *ast.Binary) (mul *ast.Binary, other ast.Expr, alpha, beta float64, ok bool) {
	isMatVec := func(e ast.Expr) (*ast.Binary, bool) {
		bin, ok := e.(*ast.Binary)
		if !ok || bin.Op != ast.OpMul {
			return nil, false
		}
		at, xt := g.annOf(bin.L), g.annOf(bin.R)
		if at.MaybeScalar() || xt.MaybeScalar() {
			return nil, false
		}
		if !types.LeqI(at.I, types.IReal) || !types.LeqI(xt.I, types.IReal) {
			return nil, false
		}
		// x must be a column vector.
		if xt.MaxShape.C != types.Fin(1) {
			return nil, false
		}
		return bin, true
	}

	switch x.Op {
	case ast.OpMul:
		if m, k := isMatVec(x); k {
			return m, nil, 1, 0, true
		}
	case ast.OpAdd:
		if m, k := isMatVec(x.L); k && g.realVector(x.R) {
			return m, x.R, 1, 1, true
		}
		if m, k := isMatVec(x.R); k && g.realVector(x.L) {
			return m, x.L, 1, 1, true
		}
	case ast.OpSub:
		// y - A*x → -1*A*x + y
		if m, k := isMatVec(x.R); k && g.realVector(x.L) {
			return m, x.L, -1, 1, true
		}
		// A*x - y → 1*A*x + (-1)*y
		if m, k := isMatVec(x.L); k && g.realVector(x.R) {
			return m, x.R, 1, -1, true
		}
	}
	return nil, nil, 0, 0, false
}

// realMatrix reports whether e is real and never a scalar.
func (g *gen) realMatrix(e ast.Expr) bool {
	t := g.annOf(e)
	return types.LeqI(t.I, types.IReal) && !t.MaybeScalar()
}

func (g *gen) realVector(e ast.Expr) bool {
	t := g.annOf(e)
	if !types.LeqI(t.I, types.IReal) || t.MaybeScalar() {
		return false
	}
	return t.MaxShape.C == types.Fin(1)
}

func betaCode(beta float64) int {
	switch beta {
	case 0:
		return 0
	case 1:
		return 1
	default:
		return -1
	}
}
