package infer

import (
	"math"

	"repro/internal/cfg"
	"repro/internal/types"
)

// PoisonScratch takes a scratch from the pool, fills all the capacity it
// has with what no run may read uncleared — ⊤ types with NaN ranges,
// every defined and inQueue bit set, huge visit counts, a queue and
// environments of a stray graph — and puts it back, so the next Forward
// on this goroutine starts from it.
func PoisonScratch() {
	s := scratchPool.Get()
	bad := types.Type{I: types.ITop, Sp: true, MinShape: types.ShapeTop, MaxShape: types.ShapeBot,
		R: types.Range{Lo: math.NaN(), Hi: math.NaN()}}
	stray := &cfg.Graph{}
	fill(s.types, bad)
	fill(s.loopVar, bad)
	fill(s.defined, true)
	fill(s.inQueue, true)
	fill(s.visits, 1<<30)
	fill(s.queue, &cfg.Block{ID: 1 << 20})
	fill(s.envs, tenv{g: stray, types: s.types, defined: s.defined})
	scratchPool.Put(s)
}

func fill[T any](s []T, v T) {
	s = s[:cap(s)]
	for i := range s {
		s[i] = v
	}
}

// WithNewScratch runs f with the pool drained, so that a Forward in f
// starts from a new scratch, and then puts back what it drained.
func WithNewScratch(f func()) {
	var held []*scratch
	for {
		s := scratchPool.Get()
		if s.envs == nil { // made by New: the pool is empty
			break
		}
		held = append(held, s)
	}
	f()
	for _, s := range held {
		scratchPool.Put(s)
	}
}
