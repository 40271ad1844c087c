// Package opt implements the backend optimization passes that stand in
// for the platform's native C/Fortran compiler behind MaJIC's source
// code generator (paper §2.6): constant folding, local value numbering
// (common subexpression elimination), loop-invariant code motion, and
// dead code elimination over the scalar banks of the IR. The JIT code
// generator deliberately skips all of this ("no loop optimizations or
// instruction scheduling are performed"); the speculative and
// FALCON-style tiers run it.
//
// Cost contract: every pass is one or two walks over the instructions,
// with its per-register facts in slices indexed by register (regSpace)
// and made stale by a block or loop counter, never cleared; LICM costs
// the sum of the loop spans (program length times nesting depth). A
// pipeline takes its tables from one pooled scratch (scratch.go), so a
// warm pipeline allocates only compact's new stream. Which fields of an
// instruction are registers, which a branch target and what a pass may do
// with it is ir's knowledge (Instr.Def, Uses, Target, Op.Effect).
package opt

import "repro/internal/ir"

// Run optimizes p in place with the fixed pass pipeline. It must run
// before register allocation. Copy propagation turns the moves CSE
// leaves behind into dead code; DCE nops them out; compaction deletes
// the nops (a VM dispatches nops at full price, unlike hardware).
func Run(p *ir.Prog) {
	if p.Allocated {
		panic("opt: program already register-allocated")
	}
	sc := scratchPool.Get()
	defer sc.put()
	foldConstants(p, sc)
	localCSE(p, sc)
	propagateCopies(p, sc)
	hoistInvariants(p, sc)
	eliminateDeadCode(p, sc)
	compact(p, sc)
}

// regSpace numbers the scalar registers of the three banks in one dense
// range, so a per-register table is a slice.
type regSpace struct {
	base [3]int
	n    int
}

func newRegSpace(p *ir.Prog) regSpace {
	nf, ni := int(p.NumF), int(p.NumI)
	return regSpace{base: [3]int{0, nf, nf + ni}, n: nf + ni + int(p.NumC)}
}

func (s regSpace) at(b ir.Bank, reg int32) int { return s.base[b] + int(reg) }

func (s regSpace) of(o ir.Operand) int { return s.base[o.Bank] + int(*o.Reg) }

// --- constant folding ---------------------------------------------------------

// foldConstants folds pure arithmetic whose operands are all constant —
// constant registers, or registers a fold earlier in the block left
// holding one — into a move from the constant register of the result.
// Copy propagation then hands the constant to the readers and the move
// dies: nothing is left to hoist.
func foldConstants(p *ir.Prog, sc *scratch) {
	lead := sc.leaders(p)
	rs := newRegSpace(p)
	// A register holds a known constant while known[reg] names the
	// current block.
	known := zeroed(&sc.ints[0], rs.n)
	fval := zeroed(&sc.fval, int(p.NumF))
	ival := zeroed(&sc.ival, int(p.NumI))
	block := int32(0)
	fconst := func(r int32) (float64, bool) {
		if r < 0 {
			return p.ConstF[^r], true
		}
		return fval[r], known[rs.at(ir.BankF, r)] == block
	}
	iconst := func(r int32) (int64, bool) {
		if r < 0 {
			return p.ConstI[^r], true
		}
		return ival[r], known[rs.at(ir.BankI, r)] == block
	}
	setF := func(in *ir.Instr, v float64) {
		*in = ir.Instr{Op: ir.OpFMov, A: in.A, B: p.FConst(v)}
		fval[in.A], known[rs.at(ir.BankF, in.A)] = v, block
	}
	setI := func(in *ir.Instr, v int64) {
		*in = ir.Instr{Op: ir.OpIMov, A: in.A, B: p.IConst(v)}
		ival[in.A], known[rs.at(ir.BankI, in.A)] = v, block
	}
	for pos := range p.Ins {
		if lead[pos] {
			block++
		}
		in := &p.Ins[pos]
		switch in.Op {
		case ir.OpFMov:
			if v, ok := fconst(in.B); ok {
				setF(in, v)
				continue
			}
		case ir.OpIMov:
			if v, ok := iconst(in.B); ok {
				setI(in, v)
				continue
			}
		case ir.OpItoF:
			if v, ok := iconst(in.B); ok {
				setF(in, float64(v))
				continue
			}
		case ir.OpFtoI:
			if v, ok := fconst(in.B); ok {
				setI(in, int64(v))
				continue
			}
		case ir.OpFAdd, ir.OpFSub, ir.OpFMul, ir.OpFDiv, ir.OpFPow:
			b, okB := fconst(in.B)
			c, okC := fconst(in.C)
			if v, ok := ir.FoldF(in.Op, b, c); ok && okB && okC {
				setF(in, v)
				continue
			}
			if okC && c == 1 && (in.Op == ir.OpFMul || in.Op == ir.OpFDiv) {
				// x*1 and x/1 are x, to the bit: a copy for propagation.
				*in = ir.Instr{Op: ir.OpFMov, A: in.A, B: in.B}
			}
		case ir.OpFNeg:
			if v, ok := fconst(in.B); ok {
				setF(in, -v)
				continue
			}
		case ir.OpIAdd, ir.OpISub, ir.OpIMul:
			b, okB := iconst(in.B)
			c, okC := iconst(in.C)
			if v, ok := ir.FoldI(in.Op, b, c); ok && okB && okC {
				setI(in, v)
				continue
			}
		case ir.OpINeg:
			if v, ok := iconst(in.B); ok {
				setI(in, -v)
				continue
			}
		}
		// Not folded: whatever the instruction defines is no longer a
		// known constant.
		if d, ok := in.Def(); ok {
			known[rs.of(d)] = 0
		}
	}
}

// --- local value numbering / CSE ------------------------------------------------

// exprKey identifies a pure computation by opcode and operand value
// numbers.
type exprKey struct {
	op     ir.Op
	vnB    int32
	vnC    int32
	mathID int32
}

// availExpr is the register that holds an expression's value and the
// value number it held it under. The table is never cleared: value
// numbers are not reused, so an entry of an earlier block finds its
// register's number stale and does not validate.
type availExpr struct {
	bank ir.Bank
	reg  int32
	vn   int32
}

// localCSE performs value numbering within basic blocks over pure
// scalar ops, replacing recomputations with moves.
func localCSE(p *ir.Prog, sc *scratch) {
	lead := sc.leaders(p)
	rs := newRegSpace(p)
	// vn[reg] is the register's value number while vnBlock[reg] names
	// the current block.
	vn := zeroed(&sc.ints[0], rs.n)
	vnBlock := zeroed(&sc.ints[1], rs.n)
	block, nextVN := int32(0), int32(1)
	if sc.avail == nil {
		sc.avail = map[exprKey]availExpr{}
	}
	avail := sc.avail
	newVN := func(i int) int32 {
		nextVN++
		vn[i], vnBlock[i] = nextVN, block
		return nextVN
	}
	vnOf := func(o ir.Operand) int32 {
		if o.Const() {
			return *o.Reg // a constant register is its own, negative, number
		}
		i := rs.of(o)
		if vnBlock[i] == block {
			return vn[i]
		}
		return newVN(i)
	}
	for pos := range p.Ins {
		if lead[pos] {
			block++
		}
		in := &p.Ins[pos]
		dst, hasDef := in.Def()
		if !hasDef {
			continue
		}
		if in.Op.Effect() != ir.Pure {
			newVN(rs.of(dst))
			continue
		}
		key := pureKey(in, vnOf)
		if prev, found := avail[key]; found {
			if at := rs.at(prev.bank, prev.reg); vnBlock[at] == block && vn[at] == prev.vn {
				// Recomputation: replace with a move (of a variable into
				// itself: with nothing).
				mov := [...]ir.Op{ir.BankF: ir.OpFMov, ir.BankI: ir.OpIMov, ir.BankC: ir.OpCMov}[dst.Bank]
				if prev.reg == in.A {
					mov = ir.OpNop
				}
				*in = ir.Instr{Op: mov, A: in.A, B: prev.reg}
				i := rs.of(dst)
				vn[i], vnBlock[i] = prev.vn, block
				continue
			}
		}
		avail[key] = availExpr{dst.Bank, in.A, newVN(rs.of(dst))}
	}
}

// pureKey builds the value-number key of a pure instruction: its source
// registers are fields B and C, and OpFMath names its function in C.
func pureKey(in *ir.Instr, vnOf func(ir.Operand) int32) exprKey {
	key := exprKey{op: in.Op}
	var buf [3]ir.Operand
	for _, u := range in.Uses(&buf) {
		if u.Reg == &in.B {
			key.vnB = vnOf(u)
		} else {
			key.vnC = vnOf(u)
		}
	}
	if in.Op == ir.OpFMath {
		key.mathID = in.C
	}
	return key
}
