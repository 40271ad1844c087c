package opt

import (
	"repro/internal/builtins"
	"repro/internal/ir"
)

// FuseDst redirects a fused elementwise kernel to write straight into
// the assigned variable's register. The statement compiler emits
//
//	vfused  d, aux        ; d is a fresh temp
//	vmovswap x, d         ; x = d, temp inherits x's old buffer
//
// and rewriting the kernel's destination to x lets the VM's in-place
// check see the variable's displaced value: when this frame is its
// sole owner and the shape matches, `x = x + a .* g` writes into x's
// existing buffer — the liveness-driven destination reuse of §2.6.1's
// pre-allocated temporaries, extended to whole fused statements.
//
// The rewrite is legal when the swap immediately follows the kernel in
// the same basic block (nops from earlier passes may intervene) and
// the temp d appears nowhere else in the program: the swap's only
// effect besides x = d is to leave x's old value in d for a later
// instruction to build its result in, and a temp mentioned exactly
// twice (its def and the swap) has no such later use.
//
// One kind of kernel keeps its temp: a kernel that can abandon its loop
// for the boxed fallback (it contains .^, or sqrt or another function
// whose real path can promote) never writes over an
// operand, so `x = x ./ 2 + a .^ 2` redirected to x would find its
// displaced destination unusable on every trip and allocate. Left
// alone it alternates between two buffers: the temp holds the x of the
// trip before, which is not an operand.
func FuseDst(p *ir.Prog) {
	fused := false
	for i := range p.Ins {
		fused = fused || p.Ins[i].Op == ir.OpVFused
	}
	if !fused {
		return // most programs have no kernel to redirect
	}
	sc := scratchPool.Get()
	defer sc.put()
	// mentions[r] counts the mentions of V register r anywhere in p.
	mentions := make([]int32, p.NumV)
	note := func(r int32, _ ir.Access) {
		if r != ir.Staged { // a call operand or output that is not in a V register
			mentions[r]++
		}
	}
	for i := range p.Ins {
		p.Ins[i].VOperands(p.Aux, note)
	}
	for _, b := range p.Params {
		if b.Bank == ir.BankV && !b.Slot {
			note(b.Reg, ir.Read)
		}
	}
	for _, r := range p.OutRegs {
		note(r, ir.Read)
	}
	lead := sc.leaders(p)
	for pos := range p.Ins {
		in := &p.Ins[pos]
		if in.Op != ir.OpVFused {
			continue
		}
		// Find the next non-nop instruction in the same block.
		next := pos + 1
		for next < len(p.Ins) && p.Ins[next].Op == ir.OpNop && !lead[next] {
			next++
		}
		if next >= len(p.Ins) || lead[next] {
			continue
		}
		sw := &p.Ins[next]
		if sw.Op != ir.OpVMovSwap || sw.B != in.A || mentions[in.A] != 2 || abortableOver(p, in, sw.A) {
			continue
		}
		in.A = sw.A
		*sw = ir.Instr{Op: ir.OpNop}
	}
	compact(p, sc)
}

// abortableOver reports whether the fused kernel in reads register x and
// contains a micro-op whose real path can promote to complex mid-loop.
func abortableOver(p *ir.Prog, in *ir.Instr, x int32) bool {
	reads := false
	end, _ := in.VOperands(p.Aux, func(r int32, a ir.Access) { reads = reads || r == x && a == ir.Update })
	code := ir.FuseCode(p.Aux, int(in.B), end)
	for j := 0; reads && j < len(code); j += 2 {
		switch {
		case code[j] == ir.FusePow:
			return true
		case code[j] == ir.FuseMath:
			if f, _ := builtins.Elementary(p.MathFns[code[j+1]]); f.Promotes != nil {
				return true
			}
		}
	}
	return false
}
