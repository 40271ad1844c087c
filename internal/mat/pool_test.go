package mat

import (
	"math"
	"sync"
	"testing"
)

func vec(k Kind, xs ...float64) *Value {
	return FromColMajor(k, len(xs), 1, append([]float64(nil), xs...), nil)
}

func sameBits(a, b *Value) bool {
	if a.kind != b.kind || a.rows != b.rows || a.cols != b.cols || (a.im == nil) != (b.im == nil) {
		return false
	}
	for i, x := range a.Re() {
		if math.Float64bits(x) != math.Float64bits(b.Re()[i]) {
			return false
		}
	}
	return true
}

// TestDonorDst: the displaced destination serves any result that fits,
// whatever its old shape and kind, and is passed over when it is
// shared, complex, sparse, too small or an operand of a product.
func TestDonorDst(t *testing.T) {
	a, b := vec(Real, 1, 2, 3), vec(Real, 10, 20, 30)
	want, _ := Add(a, b)

	dst := FromColMajor(Char, 2, 4, make([]float64, 8), nil)
	before := ReadPoolStats()
	got, err := Donors{Dst: dst}.Add(a, b)
	if err != nil || got != dst || !sameBits(got, want) {
		t.Fatalf("Add into dst: got %v (reused %v, err %v), want %v", got, got == dst, err, want)
	}
	after := ReadPoolStats()
	if after.Gets-before.Gets != 1 || after.Hits-before.Hits != 1 || after.Recycles-before.Recycles != 1 {
		t.Errorf("one donated request counted as %+v -> %+v", before, after)
	}

	sp, _ := New(3, 1).Sparse()
	shared := New(3, 1)
	shared.MarkShared()
	for name, d := range map[string]*Value{
		"shared": shared, "complex": NewKind(Complex, 3, 1), "sparse": sp, "small": New(2, 1),
	} {
		if got, _ := (Donors{Dst: d}).Add(a, b); got == d || !sameBits(got, want) {
			t.Errorf("%s donor: reused %v, result %v", name, got == d, got)
		}
	}

	A := FromSlice(2, 2, []float64{1, 2, 3, 4})
	x := vec(Real, 5, 6)
	wantAx, _ := Mul(A, x)
	if got, _ := (Donors{Dst: x}).Mul(A, x); got == x || !sameBits(got, wantAx) {
		t.Errorf("x = A*x wrote over its operand: %v", got)
	}
	if got, _ := (Donors{Dst: New(7, 1)}).Mul(A, x); !sameBits(got, wantAx) {
		t.Errorf("A*x into a larger donor: %v, want %v", got, wantAx)
	}
}

// TestDonorClone: a variable copy lands in the displaced destination when
// that can hold it — whatever its old shape and kind, keeping the source's
// kind — and is a plain Clone when the destination is shared, complex,
// sparse, too small or the source itself, or the source is complex or
// sparse. The copy never shares storage with its source.
func TestDonorClone(t *testing.T) {
	sp, _ := New(3, 1).Sparse()
	shared := New(3, 1)
	shared.MarkShared()
	for _, src := range []*Value{
		vec(Real, 1, math.Copysign(0, -1), math.NaN()), vec(Int, 4, 5, 6), vec(Bool, 1, 0, 1),
		FromString("abc"), Scalar(7), IntScalar(7), Empty(), New(0, 3),
	} {
		dst := FromColMajor(Char, 2, 4, make([]float64, 8), nil)
		got := Donors{Dst: dst}.Clone(src)
		if got != dst || !sameBits(got, src) {
			t.Errorf("clone of %v %dx%d into a roomy destination: reused %v, got %v", src.kind, src.rows, src.cols, got == dst, got)
		}
		for name, d := range map[string]*Value{
			"none": nil, "shared": shared, "complex": NewKind(Complex, 3, 1), "sparse": sp, "itself": src,
		} {
			got := Donors{Dst: d}.Clone(src)
			if got == d || got == src || !sameBits(got, src) {
				t.Errorf("clone of %v %dx%d, %s donor: reused %v, got %v", src.kind, src.rows, src.cols, name, got == d, got)
			}
			if len(got.re) > 0 && len(src.re) > 0 && &got.re[0] == &src.re[0] {
				t.Errorf("clone of %v %dx%d, %s donor: shares its source's storage", src.kind, src.rows, src.cols, name)
			}
		}
	}
	if got := (Donors{Dst: New(2, 1)}).Clone(vec(Real, 1, 2, 3)); !sameBits(got, vec(Real, 1, 2, 3)) {
		t.Errorf("clone past a small destination: %v", got)
	}
	// Complex and sparse sources take the plain route whatever is offered.
	z := NewKind(Complex, 2, 1)
	z.im[1] = 3
	dst := New(4, 1)
	if got := (Donors{Dst: dst}).Clone(z); got == dst || got.kind != Complex || got.im[1] != 3 {
		t.Errorf("clone of a complex value: %v (reused %v)", got, got == dst)
	}
	if got := (Donors{Dst: dst}).Clone(sp); got == dst || !got.IsSparse() {
		t.Errorf("clone of a sparse value: %v (reused %v)", got, got == dst)
	}
}

// TestDonorConsumedOperand: an elementwise operator overwrites a
// consumed operand of the result's shape and no other; products and
// broadcast scalars are never overwritten; result kinds are replayed.
func TestDonorConsumedOperand(t *testing.T) {
	type binop struct {
		plain func(a, b *Value) (*Value, error)
		into  func(d Donors, a, b *Value) (*Value, error)
		bWins bool // with both operands on offer the second is taken (a.\b is b./a)
	}
	ops := map[string]binop{
		"add":    {Add, Donors.Add, false},
		"sub":    {Sub, Donors.Sub, false},
		"mul":    {ElemMul, Donors.ElemMul, false},
		"div":    {ElemDiv, Donors.ElemDiv, false},
		"ldiv":   {ElemLDiv, Donors.ElemLDiv, true},
		"mtimes": {Mul, Donors.Mul, false},
	}
	operands := map[string]func() *Value{
		"real":   func() *Value { return vec(Real, 1.5, -2, 4) },
		"int":    func() *Value { return vec(Int, 3, 6, -9) },
		"bool":   func() *Value { return vec(Bool, 1, 0, 1) },
		"scalar": func() *Value { return IntScalar(3) },
	}
	for opName, op := range ops {
		for an, mkA := range operands {
			for bn, mkB := range operands {
				for mask := uint32(1); mask <= 3; mask++ {
					want, werr := op.plain(mkA(), mkB())
					a, b := mkA(), mkB()
					got, err := op.into(Donors{Consumed: mask}, a, b)
					if (err != nil) != (werr != nil) {
						t.Fatalf("%s(%s,%s): error %v, want %v", opName, an, bn, err, werr)
					}
					if err != nil {
						continue
					}
					if !sameBits(got, want) {
						t.Errorf("%s(%s,%s) mask %d: got %v, want %v", opName, an, bn, mask, got, want)
					}
					// An operand is taken when it is on offer and has the
					// result's shape (scalar∘scalar allocates nothing to reuse).
					usable := func(v *Value, bit uint32) bool {
						return mask&bit != 0 && v.Numel() == want.Numel() && want.Numel() > 1
					}
					wantA, wantB := usable(a, 1), usable(b, 2)
					if wantA && wantB {
						wantA, wantB = !op.bWins, op.bWins
					}
					if (got == a) != wantA || (got == b) != wantB {
						t.Errorf("%s(%s,%s) mask %d: result in a=%v b=%v, want a=%v b=%v",
							opName, an, bn, mask, got == a, got == b, wantA, wantB)
					}
				}
			}
		}
	}

	for _, mk := range []func() *Value{operands["real"], operands["int"], operands["bool"]} {
		want, _ := Neg(mk())
		a := mk()
		if got, _ := (Donors{Consumed: 1}).Neg(a); got != a || !sameBits(got, want) {
			t.Errorf("Neg in place: reused %v, got %v, want %v", got == a, got, want)
		}
	}

	A := FromSlice(2, 2, []float64{1, 2, 3, 4})
	B := FromSlice(2, 2, []float64{0, 1, 1, 0})
	want, _ := Mul(A, B)
	if got, _ := (Donors{Consumed: 3}).Mul(A, B); got == A || got == B || !sameBits(got, want) {
		t.Errorf("a matrix product took an operand's buffer: %v", got)
	}
}

// TestDonorsConcurrent: donors are arguments, so goroutines working on
// their own values never meet in a buffer (run under -race).
func TestDonorsConcurrent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst *Value
			for i := 0; i < 500; i++ {
				n := 60 + (g*31+i*7)%500
				a, b := New(n, 1), New(n, 1)
				for k := 0; k < n; k++ {
					a.re[k], b.re[k] = float64(g), float64(k)
				}
				v, err := Donors{Dst: dst, Consumed: 1}.Add(a, b)
				if err != nil {
					t.Error(err)
					return
				}
				for k, x := range v.Re() {
					if x != float64(g+k) {
						t.Errorf("goroutine %d: element %d = %g, want %d", g, k, x, g+k)
						return
					}
				}
				dst = v
			}
		}(g)
	}
	wg.Wait()
}
