package types

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"unsafe"
)

// TestTypeSize: inference keeps an environment of Types per block and
// joins, widens and compares them by value, so the struct's size is the
// cost of every copy. Two word-sized extents per shape make it 56 bytes.
func TestTypeSize(t *testing.T) {
	if sz := unsafe.Sizeof(Type{}); sz != 56 {
		t.Errorf("Type is %d bytes, want 56", sz)
	}
}

// The extent representation Extent replaced: a count and a separate ∞
// flag, with ∞ stored as {0, true}. The lattice operations on it are
// written out here as they stood, as the oracle for the single-int64
// encoding.
type structExtent struct {
	N   int
	Inf bool
}

type structShape struct{ R, C structExtent }

func toStruct(e Extent) structExtent { return structExtent{N: e.Int(), Inf: e.IsInf()} }

func toStructShape(s Shape) structShape { return structShape{toStruct(s.R), toStruct(s.C)} }

func structLeqE(a, b structExtent) bool {
	if b.Inf {
		return true
	}
	if a.Inf {
		return false
	}
	return a.N <= b.N
}

func structMinE(a, b structExtent) structExtent {
	if structLeqE(a, b) {
		return a
	}
	return b
}

func structMaxE(a, b structExtent) structExtent {
	if structLeqE(a, b) {
		return b
	}
	return a
}

func structLeqS(a, b structShape) bool { return structLeqE(a.R, b.R) && structLeqE(a.C, b.C) }

func structMeetS(a, b structShape) structShape {
	return structShape{structMinE(a.R, b.R), structMinE(a.C, b.C)}
}

func structJoinS(a, b structShape) structShape {
	return structShape{structMaxE(a.R, b.R), structMaxE(a.C, b.C)}
}

var structTop = structShape{structExtent{Inf: true}, structExtent{Inf: true}}

func (e structExtent) String() string {
	if e.Inf {
		return "∞"
	}
	return fmt.Sprintf("%d", e.N)
}

func (s structShape) String() string { return fmt.Sprintf("<%s,%s>", s.R, s.C) }

// structWiden is Widen's shape half over the struct encoding (the range
// half does not touch extents).
func structWiden(prevMin, prevMax, nextMin, nextMax structShape) (structShape, structShape) {
	outMin, outMax := nextMin, nextMax
	if !structLeqS(nextMax, prevMax) {
		outMax = structJoinS(nextMax, structTop)
	}
	if !structLeqS(prevMin, nextMin) {
		outMin = structMeetS(nextMin, structShape{})
	}
	return outMin, outMax
}

// TestExtentOrderMatchesStruct: every operation that reads extents
// answers over the int64 encoding exactly what it answered over the
// {N, Inf} struct, on a palette holding ∞, 0, 1, small counts and a
// count beyond int32.
func TestExtentOrderMatchesStruct(t *testing.T) {
	exts := []Extent{Fin(0), Fin(1), Fin(2), Fin(7), Fin(3e9), InfExt}
	var shapes []Shape
	for _, r := range exts {
		for _, c := range exts {
			shapes = append(shapes, Shape{r, c})
		}
	}
	for _, a := range exts {
		for _, b := range exts {
			if got, want := LeqE(a, b), structLeqE(toStruct(a), toStruct(b)); got != want {
				t.Errorf("LeqE(%v, %v) = %v, struct says %v", a, b, got, want)
			}
		}
	}
	for _, a := range shapes {
		sa := toStructShape(a)
		if got, want := a.String(), sa.String(); got != want {
			t.Errorf("Shape.String: %q, struct says %q", got, want)
		}
		for _, b := range shapes {
			sb := toStructShape(b)
			if got, want := toStructShape(MeetS(a, b)), structMeetS(sa, sb); got != want {
				t.Errorf("MeetS(%v, %v) = %v, struct says %v", a, b, got, want)
			}
			if got, want := toStructShape(JoinS(a, b)), structJoinS(sa, sb); got != want {
				t.Errorf("JoinS(%v, %v) = %v, struct says %v", a, b, got, want)
			}
		}
	}

	// Widen over every (min, max) pair of a smaller palette, both sides.
	small := []Shape{ShapeBot, ScalarShape, {Fin(1), Fin(3e9)}, {Fin(2), InfExt}, ShapeTop}
	for _, pmin := range small {
		for _, pmax := range small {
			prev := Type{I: IReal, MinShape: pmin, MaxShape: pmax, R: RangeTop}
			for _, nmin := range small {
				for _, nmax := range small {
					next := Type{I: IReal, MinShape: nmin, MaxShape: nmax, R: RangeTop}
					w := Widen(prev, next)
					wantMin, wantMax := structWiden(toStructShape(pmin), toStructShape(pmax), toStructShape(nmin), toStructShape(nmax))
					if toStructShape(w.MinShape) != wantMin || toStructShape(w.MaxShape) != wantMax {
						t.Errorf("Widen(%v, %v) = %v, struct says min%v max%v", prev, next, w, wantMin, wantMax)
					}
				}
			}
		}
	}

	// Signature.Key prints shapes through Extent.String.
	for _, a := range shapes {
		for _, b := range small {
			sig := Signature{{I: IInt, MinShape: a, MaxShape: b, R: Const(3)}, {I: ICplx, MinShape: b, MaxShape: a, R: RangeTop, Sp: true}}
			var want strings.Builder
			for i, ty := range sig {
				if i > 0 {
					want.WriteByte(';')
				}
				fmt.Fprintf(&want, "%s|%s|%s|%s", ty.I, toStructShape(ty.MinShape), toStructShape(ty.MaxShape), ty.R)
				if ty.Sp {
					want.WriteString("|sp")
				}
			}
			if got := sig.Key(); got != want.String() {
				t.Errorf("Key: %q, struct says %q", got, want.String())
			}
		}
	}

	if InfExt.Int() != 0 || Fin(3e9).Int() != 3e9 || !InfExt.IsInf() || Fin(math.MaxInt32).IsInf() {
		t.Error("Int and IsInf must read ∞ as {0, true} and a finite extent as itself")
	}
}
