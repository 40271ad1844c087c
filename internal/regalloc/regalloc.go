// Package regalloc implements linear-scan register allocation
// (Poletto & Sarkar, TOPLAS 1999) over the scalar banks of the IR — the
// same allocator MaJIC re-implemented from tcc for its JIT code
// generator. Spilled virtual registers are rewritten into slot
// loads/stores around each use; the SpillAll mode spills every virtual
// register, reproducing the paper's "no regalloc" ablation ("roughly
// equivalent to compiling with the -g flag").
//
// Only the F, I and C banks are allocated: V registers hold array
// pointers, which on the paper's target machines live in memory anyway.
// A constant register (ir.ConstReg) is an immediate, not a value: it gets
// no interval, is never spilled — SpillAll included, as a SPARC immediate
// was never register-allocated either — and is renamed to the bank's
// constant area, which follows the allocatable and scratch registers:
//
//	[0,k) allocatable | k..k+2 scratch | constants | spill slots
//
// Cost contract: per bank, two walks over the instructions (operands
// come from ir's Instr.Def and Uses), one walk over each loop's stretch
// of the event list to find how the loop first touches each register,
// a fixpoint over those per-loop tables only, one sort of the intervals
// by the total key (start, vreg) and one scan with at most as many
// active intervals as there are registers. Intervals and the rewritten
// stream are one allocation each and the event list, the loop list and
// the first-touch table grow by doubling, so a bank's allocation count
// is all but flat in the program's length.
package regalloc

import (
	"sort"

	"repro/internal/ir"
)

// Options configures allocation.
type Options struct {
	FRegs, IRegs, CRegs int // physical registers per bank
	SpillAll            bool
}

// DefaultOptions models a RISC register file (the UltraSPARC target of
// the paper has 32 integer and 32 floating-point registers): 24
// allocatable FP registers, 24 integer, 8 complex pairs.
func DefaultOptions() Options {
	return Options{FRegs: 24, IRegs: 24, CRegs: 8}
}

// Allocate rewrites p in place from virtual to physical registers,
// inserting spill code. It must be called exactly once per program.
func Allocate(p *ir.Prog, opts Options) {
	if p.Allocated {
		return
	}
	p.Allocated = true
	for _, bank := range []ir.Bank{ir.BankF, ir.BankI, ir.BankC} {
		allocateBank(p, bank, opts)
	}
}

func bankCount(p *ir.Prog, b ir.Bank) *int32 {
	switch b {
	case ir.BankF:
		return &p.NumF
	case ir.BankI:
		return &p.NumI
	default:
		return &p.NumC
	}
}

func bankSlots(p *ir.Prog, b ir.Bank) *int32 {
	switch b {
	case ir.BankF:
		return &p.SlotsF
	case ir.BankI:
		return &p.SlotsI
	default:
		return &p.SlotsC
	}
}

func slotOps(b ir.Bank) (load, store ir.Op) {
	switch b {
	case ir.BankF:
		return ir.OpFLdSlot, ir.OpFStSlot
	case ir.BankI:
		return ir.OpILdSlot, ir.OpIStSlot
	default:
		return ir.OpCLdSlot, ir.OpCStSlot
	}
}

func physCount(opts Options, b ir.Bank) int {
	switch b {
	case ir.BankF:
		return opts.FRegs
	case ir.BankI:
		return opts.IRegs
	default:
		return opts.CRegs
	}
}

// interval is the live range of one virtual register. The intervals of
// a bank are one slab indexed by register; live is false for a register
// the program never mentions.
type interval struct {
	vreg    int32
	start   int
	end     int
	phys    int32
	slot    int32
	live    bool
	spilled bool
}

// event is one read or write of a register, in program order (the reads
// of an instruction before its write).
type event struct {
	pos   int
	vreg  int32
	isDef bool
}

// loopFirst says how a loop first touches a register: carried when the
// first event inside the loop is a read.
type loopFirst struct {
	vreg    int32
	carried bool
}

func allocateBank(p *ir.Prog, bank ir.Bank, opts Options) {
	nv := int(*bankCount(p, bank))
	nconst := [...]int{len(p.ConstF), len(p.ConstI), len(p.ConstC)}[bank]
	if nv == 0 && nconst == 0 {
		return
	}
	// Build live intervals.
	ivs := make([]interval, nv)
	touch := func(vreg int32, pos int) {
		iv := &ivs[vreg]
		if !iv.live {
			*iv = interval{vreg: vreg, start: pos, end: pos, live: true}
			return
		}
		if pos < iv.start {
			iv.start = pos
		}
		if pos > iv.end {
			iv.end = pos
		}
	}
	for _, b := range p.Params {
		if b.Bank == bank {
			touch(b.Reg, 0)
			// params are live from entry
		}
	}
	// Record the per-position events so loop extension can distinguish
	// iteration-local temporaries from loop-carried values, and the
	// loops themselves (backward branches).
	type loop struct{ lo, hi, firsts, nfirsts int }
	var loops []loop
	var events []event
	// eventsFrom[pos] is the index of the first event at or after pos.
	eventsFrom := make([]int32, len(p.Ins)+1)
	var buf [3]ir.Operand
	for pos := range p.Ins {
		eventsFrom[pos] = int32(len(events))
		in := &p.Ins[pos]
		for _, u := range in.Uses(&buf) {
			if u.Bank == bank && !u.Const() {
				touch(*u.Reg, pos)
				events = append(events, event{pos, *u.Reg, false})
			}
		}
		if d, ok := in.Def(); ok && d.Bank == bank {
			touch(*d.Reg, pos)
			events = append(events, event{pos, *d.Reg, true})
		}
		if t := in.Target(); t != nil && int(*t) <= pos {
			loops = append(loops, loop{lo: int(*t), hi: pos})
		}
	}
	eventsFrom[len(p.Ins)] = int32(len(events))

	// Extend intervals across loops: a value is live around the backedge
	// only when its first event inside the loop region is a read —
	// either it was defined before the loop, or the previous iteration's
	// value flows in (loop-carried). Temporaries that are always written
	// before being read stay iteration-local, which keeps register
	// pressure sane in unrolled loops. Each loop's first events are
	// found once, in one walk over its stretch of the event list; the
	// fixpoint below then only revisits those tables.
	var firsts []loopFirst
	seenIn := make([]int32, nv) // 1 + the last loop that met the register
	for li := range loops {
		l := &loops[li]
		l.firsts = len(firsts)
		for _, ev := range events[eventsFrom[l.lo]:eventsFrom[l.hi+1]] {
			if seenIn[ev.vreg] != int32(li)+1 {
				seenIn[ev.vreg] = int32(li) + 1
				firsts = append(firsts, loopFirst{ev.vreg, !ev.isDef})
			}
		}
		l.nfirsts = len(firsts) - l.firsts
	}
	for changed := true; changed; {
		changed = false
		for _, l := range loops {
			for _, f := range firsts[l.firsts : l.firsts+l.nfirsts] {
				iv := &ivs[f.vreg]
				// Values used after the loop are live through the
				// backedge as well when defined before/inside it.
				usedAfter := iv.end > l.hi && iv.start <= l.hi
				if !f.carried && !usedAfter {
					continue
				}
				if iv.start > l.lo {
					iv.start = l.lo
					changed = true
				}
				if iv.end < l.hi {
					iv.end = l.hi
					changed = true
				}
			}
		}
	}

	// Linear scan.
	k := physCount(opts, bank)
	sorted := make([]*interval, 0, nv)
	for i := range ivs {
		if ivs[i].live {
			sorted = append(sorted, &ivs[i])
		}
	}
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].start != sorted[j].start {
			return sorted[i].start < sorted[j].start
		}
		return sorted[i].vreg < sorted[j].vreg
	})

	nextSlot := int32(0)
	spill := func(iv *interval) {
		iv.slot = nextSlot
		iv.spilled = true
		nextSlot++
	}

	if opts.SpillAll {
		for _, iv := range sorted {
			spill(iv)
		}
	} else {
		free := make([]int32, 0, k)
		for i := k - 1; i >= 0; i-- {
			free = append(free, int32(i))
		}
		active := make([]*interval, 0, k) // sorted by end
		insertActive := func(iv *interval) {
			at := sort.Search(len(active), func(i int) bool { return active[i].end > iv.end })
			active = append(active, nil)
			copy(active[at+1:], active[at:])
			active[at] = iv
		}
		for _, iv := range sorted {
			// expire old intervals
			live := active[:0]
			for _, a := range active {
				if a.end < iv.start {
					free = append(free, a.phys)
				} else {
					live = append(live, a)
				}
			}
			active = live
			if len(free) == 0 {
				// spill the interval with the furthest end
				last := active[len(active)-1]
				if last.end > iv.end {
					iv.phys = last.phys
					spill(last)
					active = active[:len(active)-1]
					insertActive(iv)
				} else {
					spill(iv)
				}
				continue
			}
			iv.phys = free[len(free)-1]
			free = free[:len(free)-1]
			insertActive(iv)
		}
	}

	// Rewrite the instruction stream. Scratch registers live above the
	// allocatable set: k, k+1, k+2. A spilled source is loaded into the
	// next scratch register before the instruction (once, however many
	// fields name it); a spilled destination is computed into one and
	// stored after.
	load, store := slotOps(bank)
	nspillRefs := 0
	for _, ev := range events {
		if ivs[ev.vreg].spilled {
			nspillRefs++
		}
	}
	out := make([]ir.Instr, 0, len(p.Ins)+nspillRefs)
	newPos := make([]int32, len(p.Ins)+1)
	for pos := range p.Ins {
		newPos[pos] = int32(len(out))
		in := &p.Ins[pos] // renamed where it stands: the old stream is dropped below
		scratchNext := int32(k)
		var loaded [3]int32 // spilled sources already in k, k+1, k+2
		// Sources first: a def of the same vreg must not shadow the load.
		for _, u := range in.Uses(&buf) {
			if u.Bank != bank {
				continue
			}
			if u.Const() {
				*u.Reg = int32(k+3) + ^*u.Reg
				continue
			}
			iv := &ivs[*u.Reg]
			if !iv.spilled {
				*u.Reg = iv.phys
				continue
			}
			s := int32(k)
			for s < scratchNext && loaded[s-int32(k)] != iv.vreg {
				s++
			}
			if s == scratchNext {
				loaded[s-int32(k)] = iv.vreg
				scratchNext++
				out = append(out, ir.Instr{Op: load, A: s, B: iv.slot})
			}
			*u.Reg = s
		}
		storeTo := int32(-1)
		if d, ok := in.Def(); ok && d.Bank == bank {
			if iv := &ivs[*d.Reg]; iv.spilled {
				*d.Reg, storeTo = scratchNext, iv.slot
			} else {
				*d.Reg = iv.phys
			}
		}
		out = append(out, *in)
		if storeTo >= 0 {
			out = append(out, ir.Instr{Op: store, A: storeTo, B: in.A})
		}
	}
	newPos[len(p.Ins)] = int32(len(out))

	// Fix branch targets.
	for i := range out {
		if t := out[i].Target(); t != nil {
			*t = newPos[*t]
		}
	}
	p.Ins = out

	// Fix parameter bindings.
	for i := range p.Params {
		b := &p.Params[i]
		if b.Bank != bank {
			continue
		}
		iv := &ivs[b.Reg]
		if iv.spilled {
			b.Slot = true
			b.Reg = iv.slot
		} else {
			b.Reg = iv.phys
		}
	}

	*bankCount(p, bank) = int32(k + 3 + nconst) // physical, 3 scratch, constants
	*bankSlots(p, bank) = nextSlot
}
