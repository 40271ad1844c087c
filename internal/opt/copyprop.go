package opt

import "repro/internal/ir"

// propagateCopies rewrites operand registers through local move chains
// (d = mov s; use d → use s), turning the moves CSE and constant folding
// leave behind into dead code that eliminateDeadCode then removes. A move
// from a constant register is a copy whose source is never redefined.
// Like the other local passes it works within basic blocks.
func propagateCopies(p *ir.Prog) {
	lead := leaders(p)
	rs := newRegSpace(p)
	// copies[d] says d currently holds a copy of register src: the fact
	// is of block `block`, and it dies when src is redefined, which
	// moves version[src] on from srcVersion.
	type copyFact struct {
		block      int32
		src        int32
		srcVersion int32
	}
	copies := make([]copyFact, rs.n)
	version := make([]int32, rs.n)
	block := int32(0)
	var buf [3]ir.Operand
	for pos := range p.Ins {
		if lead[pos] {
			block++
		}
		in := &p.Ins[pos]
		for _, u := range in.Uses(&buf) {
			if u.Const() {
				continue
			}
			if c := copies[rs.of(u)]; c.block == block && (c.src < 0 || version[rs.at(u.Bank, c.src)] == c.srcVersion) {
				*u.Reg = c.src
			}
		}
		d, ok := in.Def()
		if !ok {
			continue
		}
		at := rs.of(d)
		version[at]++
		copies[at].block = 0
		switch in.Op {
		case ir.OpFMov, ir.OpIMov, ir.OpCMov:
			switch {
			case in.B < 0:
				copies[at] = copyFact{block: block, src: in.B}
			case in.A != in.B:
				copies[at] = copyFact{block, in.B, version[rs.at(d.Bank, in.B)]}
			}
		}
	}
}

// compact removes OpNop instructions, remapping branch targets, so dead
// code stops costing dispatch time in the VM (nops are not free the way
// they nearly are on hardware).
func compact(p *ir.Prog) {
	keep := 0
	for i := range p.Ins {
		if p.Ins[i].Op != ir.OpNop {
			keep++
		}
	}
	if keep == len(p.Ins) {
		return
	}
	remap := make([]int32, len(p.Ins)+1)
	out := make([]ir.Instr, 0, keep)
	for pos, in := range p.Ins {
		remap[pos] = int32(len(out))
		if in.Op != ir.OpNop {
			out = append(out, in)
		}
	}
	remap[len(p.Ins)] = int32(len(out))
	for i := range out {
		if t := out[i].Target(); t != nil {
			*t = remap[*t]
		}
	}
	p.Ins = out
}
