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
	mentions := countVMentions(p)
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
	at := int(in.B)
	nv := int(p.Aux[at])
	reads := false
	for _, r := range p.Aux[at+1 : at+1+nv] {
		reads = reads || r == x
	}
	if !reads {
		return false
	}
	nops := int(p.Aux[at+2+nv])
	code := p.Aux[at+3+nv : at+3+nv+2*nops]
	for j := 0; j < nops; j++ {
		switch {
		case code[2*j] == ir.FusePow:
			return true
		case code[2*j] == ir.FuseMath:
			if f, _ := builtins.Elementary(p.MathFns[code[2*j+1]]); f.Promotes != nil {
				return true
			}
		}
	}
	return false
}

// countVMentions counts, for every V register, how many times the
// program mentions it: instruction operands, aux-block operand lists,
// parameter bindings and output registers all count.
func countVMentions(p *ir.Prog) []int32 {
	m := make([]int32, p.NumV)
	note := func(r int32) {
		if r != ir.Staged { // a call operand or output that is not in a V register
			m[r]++
		}
	}
	var buf [4]int32
	for i := range p.Ins {
		in := &p.Ins[i]
		for _, r := range in.VRegs(&buf) {
			note(r)
		}
		// The operands in aux blocks.
		switch in.Op {
		case ir.OpGIndex, ir.OpGAssign:
			at := int(in.C)
			n := int(p.Aux[at])
			for _, r := range p.Aux[at+1 : at+1+n] {
				note(r)
			}
		case ir.OpGCat:
			at := int(in.B)
			nrows := int(p.Aux[at])
			at++
			for r := 0; r < nrows; r++ {
				ncols := int(p.Aux[at])
				at++
				for _, reg := range p.Aux[at : at+ncols] {
					note(reg)
				}
				at += ncols
			}
		case ir.OpGBuiltin, ir.OpCallUser:
			at := int(in.A)
			nout := int(p.Aux[at+1])
			for _, r := range p.Aux[at+2 : at+2+nout] {
				note(r)
			}
			nargs := int(p.Aux[at+2+nout])
			for _, r := range p.Aux[at+3+nout : at+3+nout+nargs] {
				note(r)
			}
		case ir.OpGEMV:
			at := int(in.B)
			note(p.Aux[at])
			note(p.Aux[at+1])
			if p.Aux[at+2] >= 0 {
				note(p.Aux[at+2])
			}
		case ir.OpVFused:
			at := int(in.B)
			nv := int(p.Aux[at])
			for _, r := range p.Aux[at+1 : at+1+nv] {
				note(r)
			}
		}
	}
	for _, b := range p.Params {
		if b.Bank == ir.BankV && !b.Slot {
			note(b.Reg)
		}
	}
	for _, r := range p.OutRegs {
		note(r)
	}
	return m
}
