package mat

import (
	"fmt"
	"math"
	"testing"
)

// tryBases builds, afresh on every call, the bases the Try accessors are
// held to the checked ones on: owned and shared dense matrices, a row
// vector a store may grow, one with headroom past its numel, sparse,
// complex and empty values.
var tryBases = map[string]func() *Value{
	"dense": func() *Value { return FromSlice(3, 4, seq(12)) },
	"shared": func() *Value {
		v := FromSlice(3, 4, seq(12))
		v.MarkShared()
		return v
	},
	"row": func() *Value { return FromSlice(1, 5, seq(5)) },
	"headroom": func() *Value {
		v := FromSlice(1, 3, seq(3))
		v.Grow(1, 4) // capacity past numel: reads beyond 4 stay out of range
		return v
	},
	"sparse": func() *Value {
		v, err := SparseFromTriplets(3, 4, []int{0, 2}, []int{1, 3}, []float64{5, 6})
		if err != nil {
			panic(err)
		}
		return v
	},
	"complex": func() *Value {
		return FromColMajor(Complex, 2, 3, seq(6), []float64{-1, -2, -3, -4, -5, -6})
	},
	"empty": func() *Value { return Empty() },
}

func seq(n int) []float64 {
	s := make([]float64, n)
	for i := range s {
		s[i] = float64(10 * (i + 1))
	}
	return s
}

// trySubs are the float subscripts: in range, integral and not, the
// signed zeros, NaN, the infinities, past every numel and past int64.
var trySubs = []float64{1, 2, 3, 4, 5, 6, 12, 13, 0, math.Copysign(0, -1), -1, 1.5, 2.999999, math.NaN(),
	math.Inf(1), math.Inf(-1), 1e300, 1 << 53, 1 << 63, -(1 << 63)}

// tryIntSubs are the integer subscripts, the extremes included.
var tryIntSubs = []int64{1, 2, 3, 4, 5, 6, 12, 13, 0, -1, math.MaxInt64, math.MinInt64, 1<<53 + 1}

// checkedStore runs a checked store on a fresh base and reports what it
// did besides writing: an error, growth, densifying or the copy a shared
// base needs.
func checkedStore(base *Value, set func(*Value) error) (after *Value, slow bool) {
	slow = base.IsShared() || base.IsSparse()
	rows, cols := base.Rows(), base.Cols()
	if err := set(base); err != nil || base.Rows() != rows || base.Cols() != cols {
		slow = true
	}
	return base, slow
}

// sameElements compares every element bit for bit, sparse values by
// shape alone (a fast path never writes one).
func sameElements(a, b *Value) bool {
	if a.Rows() != b.Rows() || a.Cols() != b.Cols() || a.Kind() != b.Kind() || a.IsSparse() != b.IsSparse() {
		return false
	}
	if a.IsSparse() {
		return true
	}
	for i, x := range a.Re() {
		if math.Float64bits(x) != math.Float64bits(b.Re()[i]) {
			return false
		}
	}
	for i, x := range a.Im() {
		if math.Float64bits(x) != math.Float64bits(b.Im()[i]) {
			return false
		}
	}
	return true
}

// TestTryAccessorsAgreeWithChecked holds every Try accessor to its checked
// form: it answers true exactly for an in-range integral subscript on a
// dense base (and, for a store, an owned one), where the checked form
// neither fails, grows, densifies nor copies, and then it reads or writes
// the element the checked form does.
func TestTryAccessorsAgreeWithChecked(t *testing.T) {
	for name, mk := range tryBases {
		base := mk()
		dense := !base.IsSparse()
		load := func(label string, got float64, ok bool, want float64, err error) {
			t.Helper()
			if ok != (err == nil && dense) {
				t.Errorf("%s %s: fast path %v, checked error %v", name, label, ok, err)
			} else if ok && math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s %s: fast path read %v, checked %v", name, label, got, want)
			}
		}
		store := func(label string, ok bool, fast, checked *Value, slow bool) {
			t.Helper()
			want := checked
			if !ok {
				want = mk() // a fast path that declines writes nothing
			}
			if ok == slow {
				t.Errorf("%s %s: fast path %v, checked store slow %v", name, label, ok, slow)
			} else if !sameElements(fast, want) {
				t.Errorf("%s %s: fast path left %v, want %v", name, label, fast, want)
			}
		}
		for _, x := range trySubs {
			got, ok := base.TryGet1(x)
			want, err := base.CheckedGet1(x)
			load(fmt.Sprintf("get(%g)", x), got, ok, want, err)

			if x <= 1e9 { // a checked store past it grows past memory
				fast := mk()
				ok = fast.TrySet1(x, -7)
				checked, slow := checkedStore(mk(), func(v *Value) error { return v.CheckedSet1(x, -7) })
				store(fmt.Sprintf("set(%g)", x), ok, fast, checked, slow)
			}

			for _, y := range trySubs {
				got, ok := base.TryGet2(x, y)
				want, err := base.CheckedGet2(x, y)
				load(fmt.Sprintf("get(%g,%g)", x, y), got, ok, want, err)

				if x > 1e9 || y > 1e9 {
					continue
				}
				fast := mk()
				ok = fast.TrySet2(x, y, -7)
				checked, slow := checkedStore(mk(), func(v *Value) error { return v.CheckedSet2(x, y, -7) })
				store(fmt.Sprintf("set(%g,%g)", x, y), ok, fast, checked, slow)
			}
		}
		for _, k := range tryIntSubs {
			got, ok := base.TryGet1I(k)
			want, err := base.CheckedGet1(float64(k))
			load(fmt.Sprintf("get(int %d)", k), got, ok, want, err)

			if k <= 1e9 {
				fast := mk()
				ok = fast.TrySet1I(k, -7)
				checked, slow := checkedStore(mk(), func(v *Value) error { return v.CheckedSet1(float64(k), -7) })
				store(fmt.Sprintf("set(int %d)", k), ok, fast, checked, slow)
			}

			for _, l := range tryIntSubs {
				got, ok := base.TryGet2I(k, l)
				want, err := base.CheckedGet2(float64(k), float64(l))
				load(fmt.Sprintf("get(int %d,%d)", k, l), got, ok, want, err)

				if k > 1e9 || l > 1e9 {
					continue
				}
				fast := mk()
				ok = fast.TrySet2I(k, l, -7)
				checked, slow := checkedStore(mk(), func(v *Value) error { return v.CheckedSet2(float64(k), float64(l), -7) })
				store(fmt.Sprintf("set(int %d,%d)", k, l), ok, fast, checked, slow)
			}
		}
	}
	var none *Value
	if _, ok := none.TryGet1(1); ok || none.TrySet1(1, 0) || none.Owned() || none.Reusable(0, 0) {
		t.Error("a register no path assigned has a fast path")
	}
}

// TestReusableIsVEnsuresTest: a value stands for zeros(r, c) in place
// exactly when it is an owned dense real r×c matrix.
func TestReusableIsVEnsuresTest(t *testing.T) {
	for name, mk := range tryBases {
		v := mk()
		want := !v.IsShared() && !v.IsSparse() && v.Kind() == Real
		if got := v.Reusable(v.Rows(), v.Cols()); got != want {
			t.Errorf("%s: reusable %v, want %v", name, got, want)
		}
		if v.Reusable(v.Rows()+1, v.Cols()) || v.Reusable(v.Rows(), v.Cols()+1) {
			t.Errorf("%s: reusable at another shape", name)
		}
	}
}
