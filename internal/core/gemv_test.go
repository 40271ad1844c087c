package core_test

import (
	"math"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
	"repro/internal/types"
)

// TestGEMVKeepsTheInterpretersBits: a matrix-vector product fused into
// gemv (A*x, A*x + y, y - A*x, A*x - y) computes A*x first and then adds
// y, as the interpreter does, so every compiling tier returns the
// interpreter's bits — fractal's p = B*p + c among them. A transposed
// matrix on the left (A'*x, p'*q) is read in place, with the same bits.
func TestGEMVKeepsTheInterpretersBits(t *testing.T) {
	for _, prog := range []struct{ name, fn, src, want string }{
		{"matvec_gemv", "f", core.DiffSource("matvec_gemv"), "gemv"},
		{"matvec_gemv_trans", "f", core.DiffSource("matvec_gemv_trans"), "ctrans"},
		{"fractal", "fractal", bench.ByName("fractal").Source(bench.Medium), "gemv"},
	} {
		t.Run(prog.name, func(t *testing.T) {
			want := runOnce(t, core.TierInterp, prog.fn, prog.src)
			for _, tier := range []core.Tier{core.TierMCC, core.TierFalcon, core.TierJIT, core.TierSpec} {
				got := runOnce(t, tier, prog.fn, prog.src)
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: %v (%x), the interpreter %v (%x)", tier, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			e := core.New(core.Options{Tier: core.TierJIT, Seed: 12345})
			if err := e.Define(prog.src); err != nil {
				t.Fatal(err)
			}
			low, err := e.Lower(prog.fn, types.Signature{})
			if err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(low.Asm, prog.want) {
				t.Fatalf("no %s selected:\n%s", prog.want, low.Asm)
			}
		})
	}
}

func runOnce(t *testing.T, tier core.Tier, fn, src string) float64 {
	t.Helper()
	e := core.New(core.Options{Tier: tier, Seed: 12345})
	if err := e.Define(src); err != nil {
		t.Fatal(err)
	}
	outs, err := e.Call(fn, []*mat.Value(nil), 1)
	if err != nil {
		t.Fatalf("%s: %v", tier, err)
	}
	return outs[0].MustScalar()
}
