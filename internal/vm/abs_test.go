package vm

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/ast"
)

// absRels are the relations an OpBrNCAbs can test.
var absRels = []ast.BinOp{ast.OpLt, ast.OpLe, ast.OpGt, ast.OpGe, ast.OpEq, ast.OpNe}

// sameAbsCompare fails the test unless absHolds answers what comparing
// cmplx.Abs(z) with c answers, for every relation.
func sameAbsCompare(t *testing.T, z complex128, c float64) {
	t.Helper()
	a := cmplx.Abs(z)
	for _, rel := range absRels {
		var want bool
		switch rel {
		case ast.OpLt:
			want = a < c
		case ast.OpLe:
			want = a <= c
		case ast.OpGt:
			want = a > c
		case ast.OpGe:
			want = a >= c
		case ast.OpEq:
			want = a == c
		case ast.OpNe:
			want = a != c
		}
		if got := absHolds(z, rel, c); got != want {
			t.Fatalf("abs(%v) %s %v: got %t, cmplx.Abs gives %v", z, rel, c, got, a)
		}
	}
}

// admissible reports whether codegen would fuse a compare with c: a
// positive literal whose square is normal.
func admissible(c float64) bool {
	s := c * c
	return c > 0 && s >= 0x1p-1022 && s <= math.MaxFloat64
}

// onCircle returns points within a few units of the circle |z| = c and
// of the band's edges, in the direction of (re, im).
func onCircle(re, im, c float64) []complex128 {
	th := math.Atan2(im, re)
	var zs []complex128
	for _, scale := range []float64{1, 1 - absBand, 1 + absBand, 1 - 2*absBand, 1 + 2*absBand, 1 - 0x1p-52, 1 + 0x1p-52} {
		x, y := c*scale*math.Cos(th), c*scale*math.Sin(th)
		zs = append(zs, complex(x, y),
			complex(math.Nextafter(x, math.Inf(1)), y), complex(math.Nextafter(x, math.Inf(-1)), y),
			complex(x, math.Nextafter(y, math.Inf(1))), complex(x, math.Nextafter(y, math.Inf(-1))))
	}
	return zs
}

// TestAbsCompareAtTheEdges: exact Pythagorean points, the smallest and
// largest admissible constants, parts whose squares overflow or
// underflow, infinities and NaNs.
func TestAbsCompareAtTheEdges(t *testing.T) {
	inf, nan := math.Inf(1), math.NaN()
	cs := []float64{2, 5, 0.5, 1, 0x1p-511, 0x1.6a09e667f3bcdp+511, 1e-150, 1e150, math.Nextafter(2, 3), math.Nextafter(2, 0)}
	zs := []complex128{
		0, 2, -2, 2i, complex(0, -2), 3 + 4i, complex(-3, 4), complex(1, 1), complex(math.Sqrt2, math.Sqrt2),
		complex(inf, 0), complex(0, -inf), complex(inf, nan), complex(nan, inf), complex(nan, 0), complex(nan, nan),
		complex(1e300, 1e300), complex(1e-300, 1e-300), complex(0x1p-1074, 0), complex(1e200, 0), complex(0, 1e-200),
		complex(math.MaxFloat64, math.MaxFloat64), complex(0x1p-1022, 0x1p-1022),
	}
	for _, c := range cs {
		if !admissible(c) {
			t.Fatalf("%v is not admissible", c)
		}
		for _, z := range zs {
			sameAbsCompare(t, z, c)
			sameAbsCompare(t, z*complex(c, 0), c)
		}
		for _, z := range onCircle(3, 4, c) {
			sameAbsCompare(t, z, c)
		}
		for _, z := range onCircle(1, 0, c) {
			sameAbsCompare(t, z, c)
		}
	}
}

// FuzzAbsCompareMatchesHypot holds the fused compare to cmplx.Abs over
// arbitrary points and constants, and over points on and around the
// band's edges for each.
func FuzzAbsCompareMatchesHypot(f *testing.F) {
	f.Add(3.0, 4.0, 5.0)
	f.Add(1.0, 1.0, 2.0)
	f.Add(1e300, -1e300, 1e150)
	f.Add(1e-300, 1e-310, 0x1p-511)
	f.Add(math.Inf(1), math.NaN(), 2.0)
	f.Fuzz(func(t *testing.T, re, im, c float64) {
		if !admissible(c) {
			c = math.Abs(c)
			if !admissible(c) {
				return
			}
		}
		sameAbsCompare(t, complex(re, im), c)
		for _, z := range onCircle(re, im, c) {
			sameAbsCompare(t, z, c)
		}
	})
}
