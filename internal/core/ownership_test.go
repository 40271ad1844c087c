package core

import (
	"testing"

	"repro/internal/mat"
	"repro/internal/vm/vmtest"
)

// ownershipConfigs are the engine configurations the single-owner
// invariant is checked under: plain jit, the speculative tier, and the
// tiered pipeline with fusion (compile-first code for a function that
// loops, placeholder → promoted code for one that does not).
var ownershipConfigs = []Options{
	{Tier: TierJIT},
	{Tier: TierSpec},
	{Tier: TierJIT, Tiered: true, FuseElemwise: true},
}

// checkOwnershipOf runs f under every configuration with the VM's
// ownership hook installed by the caller. Three calls with a drain after
// each re-enter the reused frames of the untiered engines; a tiered
// engine makes one call past DefaultTierThreshold, which takes a
// loop-free function through its placeholder and promotion.
func checkOwnershipOf(t *testing.T, src string, args func() []*mat.Value) {
	t.Helper()
	for _, opts := range ownershipConfigs {
		opts.Seed = 12345
		e := New(opts)
		calls := 3
		if opts.Tiered {
			calls = DefaultTierThreshold + 1
		}
		if err := e.Define(src); err != nil {
			t.Fatalf("define: %v\n%s", err, src)
		}
		e.Precompile()
		for call := 0; call < calls; call++ {
			if _, err := e.Call("f", args(), 1); err != nil {
				t.Fatalf("%+v call %d: %v\n%s", opts, call, err, src)
			}
			e.Drain()
		}
		e.Close()
	}
}

// TestOwnershipInvariant makes DESIGN §10's single-owner invariant
// executable: after every VM instruction that writes a V register, no
// two V registers, and no register and argument, hold the same unshared
// value or overlapping storage — over the differential, fusion and
// reuse suites and generated programs. (The Table 1 set and the benchmark's programs run under the
// same hook in internal/bench.)
func TestOwnershipInvariant(t *testing.T) {
	vmtest.CheckOwnership(t)
	progs := append(append([]diffProg{}, diffPrograms...), fusionPrograms...)
	progs = append(progs, reusePrograms...)
	for _, p := range progs {
		p := p
		t.Run(p.name, func(t *testing.T) {
			checkOwnershipOf(t, p.src, func() []*mat.Value {
				args := make([]*mat.Value, len(p.args))
				for i, a := range p.args {
					args[i] = mat.Scalar(a)
				}
				return args
			})
		})
	}
	t.Run("generated", func(t *testing.T) {
		for seed := int64(200); seed < 240; seed++ {
			checkOwnershipOf(t, generatedFunction(seed), func() []*mat.Value { return nil })
		}
	})
}
