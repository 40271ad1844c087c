package opt

import (
	"sort"

	"repro/internal/ir"
)

// loopReg is what LICM knows about one register inside the loop it is
// looking at; an entry whose epoch names another loop is empty.
type loopReg struct {
	epoch  int32
	defs   int32 // definitions inside the loop
	defPos int32 // position of the last one (the only one when defs == 1)
	first  int32 // first position that reads or writes the register
}

// licm is the state hoistInvariants keeps across loops.
type licm struct {
	p     *ir.Prog
	rs    regSpace
	regs  []loopReg
	epoch int32
	// entries[t] counts the branches that target position t.
	entries []int32
	// hoist marks the instructions of the current loop that move out.
	hoist []bool
	// scratch and remap are sized to the widest loop on first use.
	scratch []ir.Instr
	remap   []int32
	widest  int
}

func (l *licm) reg(o ir.Operand) *loopReg {
	r := &l.regs[l.rs.of(o)]
	if r.epoch != l.epoch {
		*r = loopReg{epoch: l.epoch, first: -1}
	}
	return r
}

// hoistInvariants performs loop-invariant code motion: pure scalar
// instructions inside a loop whose sources are never defined in the
// loop, and whose destination is defined exactly once (at that
// instruction) and never read earlier in the loop body, move to a
// preheader in front of the loop. Pure scalar ops cannot fault, so
// hoisting past a zero-trip loop is safe.
func hoistInvariants(p *ir.Prog) {
	// Find loops from backedges (jump to an earlier position).
	type loop struct{ lo, hi int }
	var loops []loop
	l := licm{p: p, entries: make([]int32, len(p.Ins)+1)}
	for pos := range p.Ins {
		if t := p.Ins[pos].Target(); t != nil {
			l.entries[*t]++
			if int(*t) <= pos {
				loops = append(loops, loop{lo: int(*t), hi: pos})
				l.widest = max(l.widest, pos-int(*t)+1)
			}
		}
	}
	if len(loops) == 0 {
		return
	}
	l.rs = newRegSpace(p)
	l.regs = make([]loopReg, l.rs.n)
	l.hoist = make([]bool, len(p.Ins))
	// Innermost first: smallest span, ties in discovery order. Hoisting
	// moves instructions within [lo, hi] only, so the spans found above
	// stay the ones the outer loops are taken by.
	sort.SliceStable(loops, func(i, j int) bool {
		return loops[i].hi-loops[i].lo < loops[j].hi-loops[j].lo
	})
	for _, lp := range loops {
		l.hoistOne(lp.lo, lp.hi)
	}
}

// hoistOne moves the invariant instructions of the region [lo, hi] to
// its front, in time proportional to the region.
func (l *licm) hoistOne(lo, hi int) {
	p := l.p
	l.epoch++
	// One walk collects definition counts, definition positions and
	// first touches, and tells whether anything jumps into the middle of
	// the loop from outside (irreducible shape: give up).
	var buf [3]ir.Operand
	entered := int32(0)
	for pos := lo; pos <= hi; pos++ {
		in := &p.Ins[pos]
		for _, u := range in.Uses(&buf) {
			if u.Const() {
				continue
			}
			if r := l.reg(u); r.first < 0 {
				r.first = int32(pos)
			}
		}
		if d, ok := in.Def(); ok {
			r := l.reg(d)
			r.defs++
			r.defPos = int32(pos)
			if r.first < 0 {
				r.first = int32(pos)
			}
		}
		if pos > lo {
			entered += l.entries[pos]
		}
		if t := in.Target(); t != nil && int(*t) > lo && int(*t) <= hi {
			entered--
		}
	}
	if entered != 0 {
		return
	}

	// An instruction is hoistable when it is the only definition of its
	// destination, nothing in the loop touches the destination before
	// it, and every source is either not defined in the loop or defined
	// once by a hoistable instruction. Such a definition comes earlier
	// in the loop (a later one would not be the first touch of its
	// destination), so one forward walk reaches the least fixpoint.
	n := 0
	for pos := lo; pos <= hi; pos++ {
		in := &p.Ins[pos]
		if !pure(in.Op) {
			continue
		}
		d, _ := in.Def()
		if r := l.reg(d); r.defs != 1 || int(r.first) != pos {
			continue
		}
		ok := true
		for _, u := range in.Uses(&buf) {
			if u.Const() {
				continue
			}
			if r := l.reg(u); r.defs > 1 || r.defs == 1 && !l.hoist[r.defPos] {
				ok = false
				break
			}
		}
		if ok {
			l.hoist[pos] = true
			n++
		}
	}
	if n == 0 {
		return
	}

	// Move the hoisted instructions, in order, to the front of the
	// region. remap[old-lo] is where a branch to old goes now: a hoisted
	// instruction's old slot stands for the first instruction at or after
	// it that stayed. (The backedge at hi is a branch, hence stays.)
	if l.scratch == nil {
		l.scratch = make([]ir.Instr, l.widest)
		l.remap = make([]int32, l.widest+1)
	}
	span := hi - lo + 1
	old := l.scratch[:span]
	copy(old, p.Ins[lo:hi+1])
	remap := l.remap[:span+1]
	remap[span] = int32(hi + 1)
	front, back := lo, lo+n
	for i := range old {
		if l.hoist[lo+i] {
			p.Ins[front] = old[i]
			front++
		} else {
			p.Ins[back] = old[i]
			remap[i] = int32(back)
			back++
		}
	}
	for i := span - 1; i >= 0; i-- {
		if l.hoist[lo+i] {
			remap[i] = remap[i+1]
			l.hoist[lo+i] = false
		}
	}
	// Branches inside the region follow their targets; a branch from
	// outside that lands on lo is a loop entry and now runs the
	// preheader first, which is why entries[lo] keeps its outside share.
	for pos := lo; pos <= hi; pos++ {
		if t := p.Ins[pos].Target(); t != nil && int(*t) >= lo && int(*t) <= hi {
			l.entries[*t]--
			*t = remap[int(*t)-lo]
			l.entries[*t]++
		}
	}
}

// eliminateDeadCode removes pure instructions whose destinations are
// never read (whole-program use counts; conservative for non-SSA code).
// A register whose use count reaches zero takes all its removable
// definitions with it, and their operands' counts fall in turn.
func eliminateDeadCode(p *ir.Prog) {
	rs := newRegSpace(p)
	uses := make([]int32, rs.n)
	// defsAt[defStart[r]:defStart[r+1]] are the positions of the
	// removable definitions of register r.
	defStart := make([]int32, rs.n+1)
	var buf [3]ir.Operand
	removable := func(in *ir.Instr) (ir.Operand, bool) {
		d, ok := in.Def()
		return d, ok && !sideEffect(in)
	}
	for pos := range p.Ins {
		in := &p.Ins[pos]
		for _, u := range in.Uses(&buf) {
			if !u.Const() {
				uses[rs.of(u)]++
			}
		}
		if d, ok := removable(in); ok {
			defStart[rs.of(d)+1]++
		}
	}
	for r := 0; r < rs.n; r++ {
		defStart[r+1] += defStart[r]
	}
	defsAt := make([]int32, defStart[rs.n])
	fill := make([]int32, rs.n)
	for pos := range p.Ins {
		if d, ok := removable(&p.Ins[pos]); ok {
			r := rs.of(d)
			defsAt[defStart[r]+fill[r]] = int32(pos)
			fill[r]++
		}
	}
	// fill is spent; its storage becomes the worklist of dead registers
	// (each register enters once, when its count reaches zero).
	dead := fill[:0]
	for r := 0; r < rs.n; r++ {
		if uses[r] == 0 && defStart[r] < defStart[r+1] {
			dead = append(dead, int32(r))
		}
	}
	for len(dead) > 0 {
		r := dead[len(dead)-1]
		dead = dead[:len(dead)-1]
		for _, pos := range defsAt[defStart[r]:defStart[r+1]] {
			in := &p.Ins[pos]
			for _, u := range in.Uses(&buf) {
				if u.Const() {
					continue
				}
				ur := rs.of(u)
				if uses[ur]--; uses[ur] == 0 && defStart[ur] < defStart[ur+1] {
					dead = append(dead, int32(ur))
				}
			}
			*in = ir.Instr{Op: ir.OpNop}
		}
	}
}
