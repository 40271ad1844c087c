package linalg

import (
	"math"
	"math/rand"
	"testing"
)

// bandSys returns an n x n column-major system whose entries within kl
// below and ku above the diagonal come from draw; the rest are zeros of
// either sign.
func bandSys(n, kl, ku int, draw func() float64, zero func() float64) []float64 {
	a := make([]float64, n*n)
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i-j <= kl && j-i <= ku {
				a[j*n+i] = draw()
			} else {
				a[j*n+i] = zero()
			}
		}
	}
	return a
}

// denseAnswer is Solve forced down the dense LU: the reference the band
// path must match bit for bit.
func denseAnswer(a []float64, n int, b []float64, m int) ([]float64, error) {
	x := sentinel(n * m)
	f, err := factor(a, n, false)
	if err == nil {
		f.Solve(b, m, x)
	}
	return x, err
}

func denseDet(a []float64, n int) float64 {
	f, err := factor(a, n, false)
	if err != nil {
		return 0
	}
	return f.det()
}

// sentinel is a buffer whose every entry a solve must overwrite, or none
// when it fails.
func sentinel(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = -12345
	}
	return x
}

// sameBits reports the first entry where got and want differ in bits
// (so the sign of a zero counts), or -1.
func sameBits(got, want []float64) int {
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			return i
		}
	}
	return -1
}

// checkBandSolve solves a X = b through Factor and through Solve and
// fails unless both equal the dense LU in bits, zero signs and error. It
// reports whether the band factorization answered.
func checkBandSolve(t *testing.T, a []float64, n int, b []float64, m int) (band bool) {
	t.Helper()
	want, wantErr := denseAnswer(a, n, b, m)
	got := sentinel(n * m)
	f, err := Factor(a, n)
	if err == nil {
		f.Solve(b, m, got)
		band = f.band
	}
	viaSolve := sentinel(n * m)
	solveErr := Solve(a, n, b, m, viaSolve)
	if err != wantErr || solveErr != wantErr {
		t.Fatalf("n=%d a=%v b=%v: error %v (Solve: %v), dense LU %v", n, a, b, err, solveErr, wantErr)
	}
	if i := sameBits(got, want); i >= 0 {
		t.Fatalf("n=%d a=%v b=%v: x[%d] = %v (band %v), dense LU %v", n, a, b, i, got[i], band, want[i])
	}
	if i := sameBits(viaSolve, want); i >= 0 {
		t.Fatalf("n=%d a=%v b=%v: Solve x[%d] = %v, dense LU %v", n, a, b, i, viaSolve[i], want[i])
	}
	if d, wd := Det(a, n), denseDet(a, n); math.Float64bits(d) != math.Float64bits(wd) {
		t.Fatalf("n=%d a=%v: det %v, dense LU %v", n, a, d, wd)
	}
	return band
}

// TestBandSolveIsTheDenseLU: on random band systems drawn from ±0 and
// small integers, with several right-hand sides, Factor/Solve and Solve
// return the dense LU's answer bit for bit (zero signs included) and its
// error; and the band factorization, not the fallback, answers most of
// the band-shaped nonsingular ones.
func TestBandSolveIsTheDenseLU(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 3, -3, 4, 5}
	draw := func() float64 { return palette[r.Intn(len(palette))] }
	zero := func() float64 { return palette[r.Intn(2)] }
	const systems = 6000
	var shaped, solvable, banded int
	for trial := 0; trial < systems; trial++ {
		n := 2 + r.Intn(39)
		kl, ku := r.Intn(4), r.Intn(4)
		m := 1 + r.Intn(3)
		a := bandSys(n, kl, ku, draw, zero)
		if trial%2 == 0 { // a nonzero diagonal keeps most systems solvable
			for i := 0; i < n; i++ {
				a[i*n+i] = float64(1 + r.Intn(5))
			}
		}
		b := make([]float64, n*m)
		for i := range b {
			b[i] = draw()
		}
		band := checkBandSolve(t, a, n, b, m)
		if 2*kl+ku+1 < n {
			shaped++
			if _, err := denseAnswer(a, n, b, m); err == nil {
				solvable++
				if band {
					banded++
				}
			}
		}
	}
	t.Logf("%d systems, %d band-shaped, %d of them solvable, the band path answered %d", systems, shaped, solvable, banded)
	if shaped < systems/2 || banded*2 < solvable {
		t.Fatalf("the band path answered %d of %d solvable band-shaped systems (%d band-shaped of %d): the test no longer exercises it",
			banded, solvable, shaped, systems)
	}
}

// TestBandSolveFallsBack: each case the band factorization must not
// answer yields the dense LU's bits.
func TestBandSolveFallsBack(t *testing.T) {
	negz := math.Copysign(0, -1)
	tri := func(d float64) []float64 { // 5 x 5 tridiagonal, diagonal d
		a := bandSys(5, 1, 1, func() float64 { return 1 }, func() float64 { return 0 })
		for i := 0; i < 5; i++ {
			a[i*5+i] = d
		}
		return a
	}
	for _, c := range []struct {
		name string
		a    []float64
		b    []float64
	}{
		{"zero solution", tri(2), []float64{0, negz, 0, negz, 0}},
		{"non-finite b", tri(4), []float64{1, math.Inf(1), 1, 1, 1}},
		{"NaN in a", func() []float64 { a := tri(4); a[6] = math.NaN(); return a }(), []float64{1, 2, 3, 4, 5}},
		{"overflowing factor", func() []float64 { a := tri(1); a[1], a[5], a[6] = -1, 1e308, 1e308; return a }(), []float64{1, 2, 3, 4, 5}},
		{"singular", tri(0), []float64{1, 2, 3, 4, 5}},
	} {
		t.Run(c.name, func(t *testing.T) {
			if checkBandSolve(t, c.a, 5, c.b, 1) {
				t.Errorf("the band factorization answered")
			}
		})
	}
}

// FuzzBandSolve decodes a band system (n <= 12, kl, ku <= 4, one or two
// right-hand sides) over a palette with signed zeros, values near the overflow threshold and
// non-finite values, and requires Solve and Det to be the dense LU's.
func FuzzBandSolve(f *testing.F) {
	f.Add([]byte{5, 1, 1, 0, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{11, 2, 1, 1, 1, 0, 14, 8, 12, 9, 2, 1, 3, 7, 5, 0, 1, 13, 10, 4})
	f.Add([]byte{7, 0, 4, 0, 15, 15, 1, 16, 2, 17})
	f.Add([]byte{})
	palette := []float64{0, math.Copysign(0, -1), 1, -1, 2, -2, 0.1, -3.75, 1e-3, 7.5e5,
		1e300, -1e300, 1e-300, 1.5e308, math.Inf(1), math.Inf(-1), math.NaN(), 6, -0.5}
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			c := data[0]
			data = data[1:]
			return c
		}
		n, kl, ku, m := 1+int(next()%12), int(next()%5), int(next()%5), 1+int(next()%2)
		draw := func() float64 { return palette[int(next())%len(palette)] }
		a := bandSys(n, kl, ku, draw, func() float64 { return 0 })
		b := make([]float64, n*m)
		for i := range b {
			b[i] = draw()
		}
		checkBandSolve(t, a, n, b, m)
	})
}
