package mat

import "sync/atomic"

// Result-buffer reuse for compiled code (DESIGN.md §10). An operation
// that produces a dense real array is handed the dead values its caller
// already owns — Donors — and builds its result in one of them instead
// of allocating. Donors are always arguments, never package state, so
// concurrent sessions cannot see each other's buffers, and nothing is
// kept once the operation returns. The interpreter passes no donors.

// Donors names the values an array-producing operation may overwrite.
// The caller asserts each is dead under the single-owner invariant: an
// unshared *Value is referenced from exactly one place. Shared, complex,
// sparse and too-small donors are passed over, so offering one
// conservatively is always safe.
type Donors struct {
	// Dst is the value the result displaces (the destination register's
	// old content). Any operation may take it unless it is also an
	// operand.
	Dst *Value
	// Consumed has bit k set when operand k is a temporary that nothing
	// reads after this operation. Only an operation that reads element i
	// of its operands before writing element i of the result, and never
	// abandons the loop half-way, overwrites such an operand.
	Consumed uint32
}

// swapped is d for the same operation with its two operands exchanged.
func (d Donors) swapped() Donors {
	d.Consumed = d.Consumed&^3 | (d.Consumed&1)<<1 | (d.Consumed&2)>>1
	return d
}

// PoolStats is cumulative result-buffer traffic, for tests, /metrics
// and the benchmark.
type PoolStats struct {
	Gets     uint64 `json:"gets"`     // dense real result buffers requested
	Hits     uint64 `json:"hits"`     // requests served by a donor
	Recycles uint64 `json:"recycles"` // requests that came with a donor
}

var poolGets, poolHits, poolPuts atomic.Uint64

// ReadPoolStats returns a snapshot of the counters.
func ReadPoolStats() PoolStats {
	return PoolStats{Gets: poolGets.Load(), Hits: poolHits.Load(), Recycles: poolPuts.Load()}
}

// NewReal returns the Real rows x cols value that an operation over ops
// writes its result into. The elements are NOT zeroed — the caller
// overwrites every one. inPlace says the operation may overwrite an
// operand of exactly the result's shape (see Donors.Consumed). A result
// built in an operand is that operand: the caller that marked it
// consumed must drop its own reference.
func (d Donors) NewReal(rows, cols int, inPlace bool, ops ...*Value) *Value {
	poolGets.Add(1)
	n := rows * cols
	if d.Dst != nil || d.Consumed != 0 {
		poolPuts.Add(1)
		if v := d.Dst; v.reusable(n) {
			operand := false
			for _, o := range ops {
				operand = operand || o == v
			}
			if !operand || (inPlace && v.rows == rows && v.cols == cols) {
				return v.reuse(rows, cols)
			}
		}
		if inPlace {
			for k, o := range ops {
				if d.Consumed&(1<<k) != 0 && o.reusable(n) && o.rows == rows && o.cols == cols {
					return o.reuse(rows, cols)
				}
			}
		}
	}
	return &Value{kind: Real, rows: rows, cols: cols, re: make([]float64, n)}
}

// Clone is v.Clone() built in the displaced destination when that can
// hold it: B = A in a loop then costs a copy and no object. A sparse or
// complex v, and a destination that is v itself, take the plain route.
func (d Donors) Clone(v *Value) *Value {
	n := v.rows * v.cols
	if v.sp != nil || v.im != nil || d.Dst == v || !d.Dst.reusable(n) {
		return v.Clone()
	}
	out := d.NewReal(v.rows, v.cols, false)
	out.kind = v.kind
	copy(out.re, v.re[:n])
	return out
}

// reusable reports whether v's storage can hold an n-element real
// result: v is dense, non-complex, large enough, and unshared.
func (v *Value) reusable(n int) bool {
	return v != nil && v.im == nil && v.sp == nil && cap(v.re) >= n && !v.IsShared()
}

func (v *Value) reuse(rows, cols int) *Value {
	poolHits.Add(1)
	v.kind, v.rows, v.cols, v.re = Real, rows, cols, v.re[:rows*cols]
	return v
}
