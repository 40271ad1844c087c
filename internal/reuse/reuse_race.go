//go:build race

package reuse

import "sync"

// Pool is, under the race detector, a locked free list. There sync.Pool
// drops a quarter of what it is given on purpose, which would make the
// exact allocation counts the compiler's cost tests pin
// (TestCompileCostIsLinear, TestFirstCallCompilesLoops) random; a race
// build keeps every object instead, and no collection empties the list.
type Pool[T any] struct {
	mu   sync.Mutex
	free []*T
}

// Get returns a kept *T, or a new zero one.
func (p *Pool[T]) Get() *T {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		s := p.free[n-1]
		p.free = p.free[:n-1]
		return s
	}
	return new(T)
}

// Put gives s back; the caller keeps no reference to it.
func (p *Pool[T]) Put(s *T) {
	p.mu.Lock()
	p.free = append(p.free, s)
	p.mu.Unlock()
}
