package vm

import (
	"math"

	"repro/internal/ir"
	"repro/internal/mat"
)

// Operand is one value crossing a call: an argument on its way in or a
// result on its way out. It is either boxed (V is set) or a real or
// integer scalar still in the register class its producer computed it
// in, so a call between two functions compiled for scalars moves
// registers and allocates nothing. Whoever needs the box — a V-bank
// parameter, a boxed destination, the interpreter, the engine's API —
// makes it with Box, by the rule the box.f and box.i instructions have
// always applied.
type Operand struct {
	V    *mat.Value // the boxed value; nil for a register scalar
	F    float64    // the scalar when Bank is BankF
	I    int64      // the scalar when Bank is BankI
	Bank ir.Bank    // BankF or BankI; meaningless while V is set
}

// Boxed wraps boxed values as operands, in buf when it is large enough.
func Boxed(buf []Operand, vals []*mat.Value) []Operand {
	if cap(buf) < len(vals) {
		buf = make([]Operand, len(vals))
	}
	ops := buf[:len(vals)]
	for i, v := range vals {
		ops[i] = Operand{V: v}
	}
	return ops
}

// BoxAll boxes a list of operands, in buf when it is large enough.
func BoxAll(buf []*mat.Value, ops []Operand) []*mat.Value {
	if cap(buf) < len(ops) {
		buf = make([]*mat.Value, len(ops))
	}
	vals := buf[:len(ops)]
	for i := range ops {
		vals[i] = ops[i].Box()
	}
	return vals
}

// Box returns the operand as a boxed value: itself when it is one, an
// Int-kinded scalar for an I register (box.i), a Real-kinded one for an F
// register (box.f).
func (o *Operand) Box() *mat.Value {
	switch {
	case o.V != nil:
		return o.V
	case o.Bank == ir.BankI:
		return mat.IntScalar(float64(o.I))
	}
	return mat.Scalar(o.F)
}

// float is the operand as an F-bank parameter takes it.
func (o *Operand) float() (float64, error) {
	switch {
	case o.V != nil:
		return unboxF(o.V)
	case o.Bank == ir.BankI:
		return float64(o.I), nil
	}
	return o.F, nil
}

// integer is the operand as an I-bank parameter takes it; false when it
// is not an integral real scalar.
func (o *Operand) integer() (int64, bool) {
	if o.V == nil && o.Bank == ir.BankI {
		return o.I, true
	}
	x, err := o.float()
	return int64(x), err == nil && x == math.Trunc(x)
}

// complex is the operand as a C-bank parameter takes it; false when it
// is not a scalar.
func (o *Operand) complex() (complex128, bool) {
	if o.V != nil {
		if !o.V.IsScalar() {
			return 0, false
		}
		return o.V.ComplexAt(0), true
	}
	x, _ := o.float()
	return complex(x, 0), true
}

// maxExactInt bounds the integers a guard admits to an I register: past
// 2^53 a float64 no longer holds every integer, so int64 arithmetic and
// the boxed float arithmetic it replaces could part ways.
const maxExactInt = 1 << 53

// fetchF is the return-type guard of an F destination: the callee's
// output lived in an F register, or came back as a box holding exactly a
// dense Real scalar. The slot lets go of the box either way.
func (o *Operand) fetchF() (float64, bool) {
	if v := o.V; v != nil {
		o.V = nil
		return guardedScalar(v, mat.Real)
	}
	return o.F, o.Bank == ir.BankF
}

// fetchI is the guard of an I destination: an I-register output, or a box
// holding exactly a dense Int scalar — in both cases an integer a
// float64 represents exactly.
func (o *Operand) fetchI() (int64, bool) {
	if v := o.V; v != nil {
		o.V = nil
		x, ok := guardedScalar(v, mat.Int)
		return int64(x), ok && x == math.Trunc(x) && math.Abs(x) <= maxExactInt
	}
	return o.I, o.Bank == ir.BankI && o.I >= -maxExactInt && o.I <= maxExactInt
}

// guardedScalar is the guard's test on a box: a dense 1x1 value of
// exactly the kind the register's contents are boxed back to (Int for an
// I register, Real for F). Unlike unboxF it admits no other kind: an
// interpreted callee may hand back, say, an Int-kinded 2 for x/2 —
// taking that into F and boxing it again later would turn it into a
// double, which the boxed call it replaces would not have done.
func guardedScalar(v *mat.Value, k mat.Kind) (float64, bool) {
	if !v.IsScalar() || v.IsSparse() || v.Kind() != k {
		return 0, false
	}
	return v.Re()[0], true
}
