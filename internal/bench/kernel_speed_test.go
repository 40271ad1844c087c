package bench

import (
	"math"
	"runtime/debug"
	"sort"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/mat"
)

// kernelSpeedPrograms are the ledger's steady-kernel rows (benchmark/
// programs.go), at the ledger's sizes: the library-bound Table 1
// programs plus the three shapes that reach dgemm, a six-operator
// elementwise tree and CSR SpMV.
func kernelSpeedPrograms() []struct {
	name, fn, src string
	args          []*mat.Value
} {
	wave := func(rows, cols int, phase float64) *mat.Value {
		v := mat.New(rows, cols)
		for i, re := 0, v.Re(); i < len(re); i++ {
			re[i] = 1 + 0.5*math.Sin(0.37*float64(i)+phase)
		}
		return v
	}
	type prog = struct {
		name, fn, src string
		args          []*mat.Value
	}
	var out []prog
	for _, p := range []struct {
		name string
		sz   Size
	}{{"cgopt", Medium}, {"qmr", Small}, {"sor", Small}, {"mei", Small}} {
		b := ByName(p.name)
		out = append(out, prog{b.Name, b.Fn, b.Source(p.sz), b.Args(p.sz)})
	}
	return append(out,
		prog{"matmul", "matmul", "function C = matmul(A, B)\n  C = A*B;\nend\n",
			[]*mat.Value{wave(256, 256, 1), wave(256, 256, 2)}},
		prog{"elemchain", "elemchain", "function y = elemchain(a, b, c)\n  y = (a + b).*c - a./(b + 2) + c;\nend\n",
			[]*mat.Value{wave(200000, 1, 3), wave(200000, 1, 4), wave(200000, 1, 5)}},
		prog{"spcg", "cgsp", cgSparseSrc,
			[]*mat.Value{pentaOperator(10000), wave(10000, 1, 6), mat.Scalar(15)}},
	)
}

// raceEnabled reports whether this test binary was built with -race,
// whose instrumentation makes a timing ratio meaningless.
func raceEnabled() bool {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return false
	}
	for _, s := range bi.Settings {
		if s.Key == "-race" {
			return s.Value == "true"
		}
	}
	return false
}

// TestKernelProgramsNotSlowerThanInterp is ROADMAP's "specialised code
// is never slower than the generic path it replaced", executable: on
// every kernel-bound program a warm compiled call takes no longer than
// a warm interpreted one. The two calls of a round are neighbours in
// time, so whatever slows the box slows both, and the verdict is the
// median of the per-round ratios; 0.95 leaves room for the one row
// (matmul) where both tiers spend all their time in the same Dgemm.
func TestKernelProgramsNotSlowerThanInterp(t *testing.T) {
	if testing.Short() || raceEnabled() {
		t.Skip("timing assertion: skipped under -short and -race")
	}
	const rounds = 40
	for _, p := range kernelSpeedPrograms() {
		call := func(e *core.Engine) time.Duration {
			t0 := time.Now()
			if _, err := e.Call(p.fn, p.args, 1); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			return time.Since(t0)
		}
		interp, jit := core.New(core.Options{Tier: core.TierInterp}), core.New(core.Options{Tier: core.TierJIT})
		for _, e := range []*core.Engine{interp, jit} {
			if err := e.Define(p.src); err != nil {
				t.Fatalf("%s: %v", p.name, err)
			}
			call(e) // compile
			call(e) // settle the frame chain
		}
		ratios := make([]float64, rounds)
		var ti, tj time.Duration
		for r := range ratios {
			di, dj := call(interp), call(jit)
			ratios[r] = float64(di) / float64(dj)
			ti, tj = ti+di, tj+dj
		}
		interp.Close()
		jit.Close()
		sort.Float64s(ratios)
		median := (ratios[rounds/2-1] + ratios[rounds/2]) / 2
		t.Logf("%-10s interp/jit median %.2f (quartiles %.2f..%.2f), mean call %.3f ms vs %.3f ms",
			p.name, median, ratios[rounds/4], ratios[3*rounds/4], ti.Seconds()*1e3/rounds, tj.Seconds()*1e3/rounds)
		if median < 0.95 {
			t.Errorf("%s: compiled code is slower than the interpreter: median interp/jit = %.2f over %d rounds", p.name, median, rounds)
		}
	}
}
