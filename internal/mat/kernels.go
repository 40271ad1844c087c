package mat

import "math"

// The kernel table (DESIGN.md §10): dense real array arithmetic as
// plain counted loops over []float64, one per operator and operand
// shape. The generic operators (elementwise, Neg, ElemPow) and the
// VM's fused executor both run these, so an operator computes the same
// IEEE operation on the same operands whichever path reached it. Every
// loop reads element i of its operands before it writes element i of o,
// so o may be x or y themselves (Donors' in-place results); a broadcast
// scalar arrives by value, read before the loop starts.

// ElemOp names a binary elementwise operator of the kernel table.
type ElemOp uint8

const (
	KAdd ElemOp = iota
	KSub
	KMul
	KDiv
	KPow // real power; callers rule out complex results first (PowPromotes)
)

// KernelBlock is the element count after which a kernel's caller scans
// what it just produced for integrality (ChunkAllInt), while the block
// is still in L1 — the fused executor's block size for the same reason.
const KernelBlock = 512

// Apply applies op to one pair: the scalar∘scalar fast path.
func (op ElemOp) Apply(x, y float64) float64 {
	switch op {
	case KAdd:
		return x + y
	case KSub:
		return x - y
	case KMul:
		return x * y
	case KDiv:
		return x / y
	}
	return math.Pow(x, y)
}

// ElemKernel computes o[i] = x[i] op y[i] over len(o) elements. A nil x
// (y) broadcasts the scalar xs (ys) instead; they are never both nil.
func ElemKernel(op ElemOp, o, x []float64, xs float64, y []float64, ys float64) {
	switch {
	case x == nil:
		y = y[:len(o)]
		switch op {
		case KAdd:
			for i := range o {
				o[i] = xs + y[i]
			}
		case KSub:
			for i := range o {
				o[i] = xs - y[i]
			}
		case KMul:
			for i := range o {
				o[i] = xs * y[i]
			}
		case KDiv:
			for i := range o {
				o[i] = xs / y[i]
			}
		default:
			for i := range o {
				o[i] = math.Pow(xs, y[i])
			}
		}
	case y == nil:
		x = x[:len(o)]
		switch op {
		case KAdd:
			for i := range o {
				o[i] = x[i] + ys
			}
		case KSub:
			for i := range o {
				o[i] = x[i] - ys
			}
		case KMul:
			for i := range o {
				o[i] = x[i] * ys
			}
		case KDiv:
			for i := range o {
				o[i] = x[i] / ys
			}
		default:
			for i := range o {
				o[i] = math.Pow(x[i], ys)
			}
		}
	default:
		x, y = x[:len(o)], y[:len(o)]
		switch op {
		case KAdd:
			for i := range o {
				o[i] = x[i] + y[i]
			}
		case KSub:
			for i := range o {
				o[i] = x[i] - y[i]
			}
		case KMul:
			for i := range o {
				o[i] = x[i] * y[i]
			}
		case KDiv:
			for i := range o {
				o[i] = x[i] / y[i]
			}
		default:
			for i := range o {
				o[i] = math.Pow(x[i], y[i])
			}
		}
	}
}

// NegKernel computes o[i] = -x[i] over len(o) elements.
func NegKernel(o, x []float64) {
	x = x[:len(o)]
	for i := range o {
		o[i] = -x[i]
	}
}

// ChunkAllInt reports whether every element of a produced chunk is
// integral: the test that decides between an Int and a Real result.
func ChunkAllInt(o []float64) bool {
	for _, z := range o {
		if z != math.Trunc(z) || math.IsInf(z, 0) {
			return false
		}
	}
	return true
}

// PowPromotes reports whether x[i] .^ y[i] leaves the reals for some i
// (a negative base to a fractional power); nil slices broadcast as in
// ElemKernel, and two nils test the one scalar pair.
func PowPromotes(x []float64, xs float64, y []float64, ys float64) bool {
	if x == nil && !(xs < 0) || y == nil && ys == math.Trunc(ys) {
		return false
	}
	for i := range max(len(x), len(y), 1) {
		b, e := xs, ys
		if x != nil {
			b = x[i]
		}
		if y != nil {
			e = y[i]
		}
		if b < 0 && e != math.Trunc(e) {
			return true
		}
	}
	return false
}

// operand is v as a kernel argument over elements [lo, hi): the slice,
// or nil and the broadcast scalar when v is 1x1.
func (v *Value) operand(lo, hi int) ([]float64, float64) {
	if v.rows*v.cols == 1 {
		return nil, v.re[0]
	}
	return v.re[lo:hi], 0
}
