package opt

import (
	"repro/internal/ir"
	"repro/internal/reuse"
)

// scratch is the passes' working memory: leader marks and per-register
// and per-position tables. Run and FuseDst take one from scratchPool and
// put it back when they return, and every pass they run reuses its
// tables instead of allocating its own. No table points anywhere, so a
// pooled scratch pins nothing.
type scratch struct {
	lead   []bool
	ints   [4][]int32
	fval   []float64
	ival   []int64
	avail  map[exprKey]availExpr
	copies []copyFact
	regs   []loopReg
	hoist  []bool
	instrs []ir.Instr
	loops  []span
}

var scratchPool reuse.Pool[scratch]

func (sc *scratch) put() {
	clear(sc.avail)
	scratchPool.Put(sc)
}

// zeroed returns *s resliced to n and cleared, growing it when it is
// too short.
func zeroed[T any](s *[]T, n int) []T {
	*s = reuse.Resize(*s, n)
	clear(*s)
	return *s
}

// leaders marks basic-block leader positions.
func (sc *scratch) leaders(p *ir.Prog) []bool {
	return ir.Leaders(p.Ins, zeroed(&sc.lead, len(p.Ins)+1))
}
