package vmtest

import (
	"sync/atomic"
	"testing"

	"repro/internal/ir"
	"repro/internal/vm"
)

// InstrCounter counts the instructions compiled code dispatches.
type InstrCounter struct {
	mix  [256]atomic.Int64 // by opcode
	next atomic.Pointer[func()]
}

// CountInstrs makes every program compiled until the end of the test
// count the instructions it dispatches — by basic block, so the dispatch
// loop itself carries nothing (vm.SetBlockHook). Call it before building
// the engines under test. Not for parallel tests: the hook is
// process-wide.
func CountInstrs(t testing.TB) *InstrCounter {
	t.Helper()
	c := &InstrCounter{}
	vm.SetBlockHook(func(ins []ir.Instr) {
		if c.next.Load() != nil {
			if f := c.next.Swap(nil); f != nil {
				(*f)()
			}
		}
		for i := range ins {
			if op := ins[i].Op; op != ir.OpVCheck && int(op) < len(c.mix) {
				c.mix[op].Add(1)
			}
		}
	})
	t.Cleanup(func() { vm.SetBlockHook(nil) })
	return c
}

// OnNextBlock runs f once, when the next basic block of a counted
// program is entered, on the goroutine that enters it: a test's way to
// act in the middle of a call.
func (c *InstrCounter) OnNextBlock(f func()) { c.next.Store(&f) }

// Reset zeroes the counts.
func (c *InstrCounter) Reset() {
	for i := range c.mix {
		c.mix[i].Store(0)
	}
}

// N is the number of instructions dispatched since the last Reset.
func (c *InstrCounter) N() (n int64) {
	for i := range c.mix {
		n += c.mix[i].Load()
	}
	return n
}

// Mix is the same count by opcode.
func (c *InstrCounter) Mix() map[ir.Op]int64 {
	m := map[ir.Op]int64{}
	for op := range c.mix {
		if n := c.mix[op].Load(); n != 0 {
			m[ir.Op(op)] = n
		}
	}
	return m
}
