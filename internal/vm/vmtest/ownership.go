// Package vmtest is test support for code that runs programs on the VM.
package vmtest

import (
	"strconv"
	"testing"
	"unsafe"

	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/vm"
)

// CheckOwnership makes every program compiled until the end of the test
// assert, after each instruction that writes a V register, the
// single-owner invariant that in-place mutation and result-buffer reuse
// rest on (DESIGN.md §10): an unshared *mat.Value sits in at most one
// place among the activation's V registers and its arguments, and its
// dense storage overlaps no other value's there. A violation fails t
// with the program, pc and instruction. Call it before building the
// engines under test. Not for parallel tests: the hook is process-wide.
func CheckOwnership(t testing.TB) {
	t.Helper()
	reported := 0
	type held struct {
		v      *mat.Value
		at     int // index into regs, then args
		lo, hi uintptr
	}
	var live []held // reused across steps
	vm.SetStepHook(func(p *ir.Prog, pc int, regs, args []*mat.Value) {
		if reported >= 10 {
			return
		}
		live = live[:0]
		unshared := false
		for i, v := range regs {
			if v != nil {
				live = append(live, held{v: v, at: i})
				unshared = unshared || !v.IsShared()
			}
		}
		if !unshared {
			return // arguments alone cannot break the invariant
		}
		for i, v := range args {
			if v != nil {
				live = append(live, held{v: v, at: len(regs) + i})
			}
		}
		for i := range live {
			live[i].lo, live[i].hi = span(live[i].v)
		}
		name := func(h held) string {
			if h.at < len(regs) {
				return "v" + strconv.Itoa(h.at)
			}
			return "arg" + strconv.Itoa(h.at-len(regs))
		}
		for i, a := range live {
			if a.v.IsShared() {
				continue
			}
			for j, b := range live {
				if i == j || (j < i && !b.v.IsShared()) {
					continue // itself, or a pair already judged
				}
				switch {
				case a.v == b.v:
					reported++
					t.Errorf("%s+%d (%v): %s and %s hold the same unshared value", p.Name, pc, p.Ins[pc], name(a), name(b))
				case a.lo < b.hi && b.lo < a.hi: // as SharesStorage
					reported++
					t.Errorf("%s+%d (%v): %s and %s overlap in storage and are not both shared", p.Name, pc, p.Ins[pc], name(a), name(b))
				}
			}
		}
	})
	t.Cleanup(func() { vm.SetStepHook(nil) })
}

// SharesStorage reports whether the dense payloads of two values
// overlap in memory.
func SharesStorage(a, b *mat.Value) bool {
	alo, ahi := span(a)
	blo, bhi := span(b)
	return alo < bhi && blo < ahi
}

// span is the address range of a value's dense payload, capacity beyond
// the current shape included; empty for sparse and empty values.
func span(v *mat.Value) (lo, hi uintptr) {
	if v.IsSparse() {
		return 0, 0
	}
	re := v.Re()
	re = re[:cap(re)]
	if len(re) == 0 {
		return 0, 0
	}
	lo = uintptr(unsafe.Pointer(unsafe.SliceData(re)))
	return lo, lo + uintptr(len(re))*8
}
