package mat

import (
	"math"
	"testing"
)

// samePow fails the test unless FPow(x, y) has math.Pow(x, y)'s bits
// (any NaN matches any NaN).
func samePow(t *testing.T, x, y float64) {
	t.Helper()
	got, want := FPow(x, y), math.Pow(x, y)
	if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
		t.Fatalf("FPow(%v, %v) = %v (%#x), math.Pow = %v (%#x)", x, y, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// TestPowMatchesMathPowAtTheEdges walks the guards of FPow's own path:
// bases that are not normal, exponents at and just past ±64 or not
// integral, and products that leave the normal range midway.
func TestPowMatchesMathPowAtTheEdges(t *testing.T) {
	xs := []float64{
		0, math.Copysign(0, -1), 0x1p-1074, -0x1p-1074, 0x1p-1023, 0x1p-1022, -0x1p-1022,
		math.Inf(1), math.Inf(-1), math.NaN(), 1, -1, 2, -2, 3, -3, 0.5, -0.5, 1.5, 10, -10,
		math.Nextafter(1, 2), math.Nextafter(1, 0), 1e-300, 1e300, -1e300, 0x1p511, 0x1p512, 0x1p-511, 0x1p-512,
		math.MaxFloat64, -math.MaxFloat64, 1.0000001, 0.9999999, math.Pi, -math.E,
	}
	ys := []float64{
		0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -3, 7, 8, -8, 63, -63, 64, -64, 65, -65,
		64.5, -64.5, math.Nextafter(64, 65), math.Nextafter(-64, -65), 2.5, 0.5, -0.5,
		math.Inf(1), math.Inf(-1), math.NaN(), 1e18, -1e18, 1 << 62, math.MaxFloat64,
	}
	for _, x := range xs {
		for _, y := range ys {
			samePow(t, x, y)
		}
	}
	// Just inside and just past the normal range, at every exponent.
	for n := -65.0; n <= 65; n++ {
		for _, x := range []float64{
			math.Pow(0x1p-1022, 1/math.Abs(n)), math.Pow(math.MaxFloat64, 1/math.Abs(n)),
			math.Nextafter(math.Pow(2, 1023/math.Abs(n)), 0), math.Pow(2, -1022/math.Abs(n)),
			-math.Pow(2, 1023/math.Abs(n)), 0x1p-1022 * 3, math.MaxFloat64 / 3,
		} {
			samePow(t, x, n)
			samePow(t, math.Nextafter(x, 0), n)
			samePow(t, math.Nextafter(x, math.Inf(1)), n)
		}
	}
}

// FuzzPowMatchesMathPow holds FPow to math.Pow's bits over arbitrary
// pairs, with most exponents drawn into the integers FPow multiplies.
func FuzzPowMatchesMathPow(f *testing.F) {
	f.Add(-3.0, int8(2), 0.0)
	f.Add(1.0000001, int8(64), 0.0)
	f.Add(0x1p-1000, int8(-2), 0.0)
	f.Add(7.5, int8(-64), 0.0)
	f.Add(2.0, int8(3), 0.25)
	f.Fuzz(func(t *testing.T, x float64, n int8, frac float64) {
		samePow(t, x, float64(n))
		samePow(t, x, float64(n)+frac)
		samePow(t, x, frac)
	})
}
