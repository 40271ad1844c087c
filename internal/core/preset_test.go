package core

import (
	"strings"
	"testing"
)

func TestParseTier(t *testing.T) {
	for _, name := range []string{"interp", "mcc", "falcon", "jit", "spec"} {
		tier, err := ParseTier(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tier.String() != name {
			t.Errorf("%s round-trips as %s", name, tier)
		}
	}
	if _, err := ParseTier("nope"); err == nil {
		t.Error("unknown tier must error")
	}
}

// TestPreset pins the six -tier values: the paper's five strategies are
// paper-mode engines of that tier and nothing else, prod is Production,
// and Production is the ledger's prod arm (tiered JIT, background
// compiles, fused kernels) with workers and threads left at their
// GOMAXPROCS defaults.
func TestPreset(t *testing.T) {
	names := []string{"interp", "mcc", "falcon", "jit", "spec", "prod"}
	for _, name := range names {
		got, err := Preset(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := Options{Tier: TierJIT, Tiered: true, AsyncCompile: true, FuseElemwise: true}
		if name != "prod" {
			tier, _ := ParseTier(name)
			want = Options{Tier: tier}
		}
		if got != want {
			t.Errorf("Preset(%q) = %+v, want %+v", name, got, want)
		}
	}
	if prod, _ := Preset("prod"); prod != Production() {
		t.Errorf("Preset(prod) = %+v, Production() = %+v", prod, Production())
	}
	_, err := Preset("fast")
	if err == nil {
		t.Fatal("an unknown name must error")
	}
	for _, name := range names {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not list %s", err, name)
		}
	}
}
