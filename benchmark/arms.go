package main

import (
	"runtime"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// arm is an engine configuration a workload measures.
type arm string

const (
	armInterp arm = "interp"
	armJIT    arm = "jit"
	armSpec   arm = "spec"
	armProd   arm = "prod"
)

// engineSeed fixes the engines' RNG so rand-using programs repeat.
const engineSeed = 20020617

// options spells each arm out as explicit core.Options. prod is the
// ROADMAP's future Production preset written out: tiered JIT with
// background compiles, fusion (which turns the buffer pool on for the
// whole process) and threaded kernels.
func (a arm) options(tr *telemetry.Tracer) core.Options {
	o := core.Options{Seed: engineSeed, Tracer: tr}
	switch a {
	case armInterp:
		o.Tier = core.TierInterp
	case armJIT:
		o.Tier = core.TierJIT
	case armSpec:
		o.Tier = core.TierSpec
	case armProd:
		o.Tier = core.TierJIT
		o.Tiered = true
		o.AsyncCompile = true
		o.FuseElemwise = true
		o.Threads = runtime.GOMAXPROCS(0)
	}
	return o
}

// promotionCalls is how many warm-up calls a prod engine gets before
// its rows are timed: past core.DefaultTierThreshold, so the hot
// signature has been promoted and Drain has published the optimized
// entry.
const promotionCalls = core.DefaultTierThreshold + 2
