//go:build !race

// Package reuse keeps a compile phase's working memory between calls.
// A Pool hands each caller an object of its own and takes it back when
// the call returns. The rule for what goes in one (DESIGN §3): it is
// taken per call, never escapes into a result, and holds no pointer once
// it is back.
package reuse

import "sync"

// Pool is a sync.Pool of *T: a collection empties it, so what it keeps
// adds nothing to the live heap.
type Pool[T any] struct{ p sync.Pool }

// Get returns a kept *T, or a new zero one.
func (p *Pool[T]) Get() *T {
	if s, ok := p.p.Get().(*T); ok {
		return s
	}
	return new(T)
}

// Put gives s back; the caller keeps no reference to it.
func (p *Pool[T]) Put(s *T) { p.p.Put(s) }
