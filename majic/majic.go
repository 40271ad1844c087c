// Package majic is the public API of the MaJIC reproduction: a MATLAB
// execution engine that interprets interactive code and compiles
// function calls behind the scenes, combining just-in-time and
// speculative ahead-of-time compilation exactly as described in
// Almási & Padua, "MaJIC: Compiling MATLAB for Speed and
// Responsiveness" (PLDI 2002).
//
// Basic use:
//
//	eng := majic.New(majic.Options{Tier: majic.TierJIT})
//	err := eng.Define(`
//	function y = sq(x)
//	  y = x*x;
//	end`)
//	out, err := eng.Call("sq", []*majic.Value{majic.Scalar(7)}, 1)
//	fmt.Println(out[0])  // 49
//
// Interactive evaluation goes through EvalString, which executes
// statements in the engine's workspace with MATLAB semantics and
// defers function calls to the code repository:
//
//	eng.EvalString("x = 1:10; s = sum(x);")
//	v, _ := eng.Workspace("s") // 55
//
// Like a MATLAB session, an Engine owns one workspace, one RNG stream,
// and one code repository, so interactive use — EvalString, Workspace,
// Define, globals — must stay on a single client goroutine. Call is the
// exception: with Options.AsyncCompile, any number of goroutines may
// Call functions through one shared Engine concurrently; compiles run
// on a bounded background worker pool with single-flight deduplication,
// and the repository handles concurrent lookup, insertion, and
// invalidation (see DESIGN.md §9). A caller whose call misses waits for
// that compile on every tier, spec included. Call Close to shut the
// pool down.
// Without AsyncCompile the engine is single-client throughout: create
// one Engine per goroutine for parallel work.
package majic

import (
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/mat"
)

// Engine is a MATLAB workspace plus the code repository and the
// compilation machinery behind it.
type Engine = core.Engine

// Options configures an Engine: execution tier, simulated platform
// profile, output writer, RNG seed, and the ablation (Figure 7) that
// the engine leaves out.
type Options = core.Options

// Ablation names the one optimization an engine leaves out.
type Ablation = core.Ablation

// Ablations (paper Figure 7, plus inlining and dgemv selection).
const (
	AblateNone      = core.AblateNone
	AblateRanges    = core.AblateRanges
	AblateMinShapes = core.AblateMinShapes
	AblateRegalloc  = core.AblateRegalloc
	AblateInlining  = core.AblateInlining
	AblateGEMV      = core.AblateGEMV
)

// Tier selects how function calls execute.
type Tier = core.Tier

// Execution tiers (paper §3: the four bars of Figures 4 and 5 plus the
// interpreter baseline).
const (
	// TierInterp interprets everything (the MATLAB baseline).
	TierInterp = core.TierInterp
	// TierMCC compiles generically with no type specialization (the
	// mcc comparator).
	TierMCC = core.TierMCC
	// TierFalcon batch-compiles with exact signatures and the
	// optimizing backend (the FALCON comparator).
	TierFalcon = core.TierFalcon
	// TierJIT compiles at call time: fast inference, naive codegen.
	TierJIT = core.TierJIT
	// TierSpec uses speculative ahead-of-time compilation with JIT
	// fallback on speculation misses.
	TierSpec = core.TierSpec
)

// Platform selects the simulated backend-quality profile.
type Platform = core.Platform

// Platform profiles (paper §3.3).
const (
	PlatformSPARC = core.PlatformSPARC
	PlatformMIPS  = core.PlatformMIPS
)

// Value is a MATLAB value: a two-dimensional matrix of logicals,
// doubles, complex doubles, or characters.
type Value = mat.Value

// New creates an engine.
func New(opts Options) *Engine { return core.New(opts) }

// Scalar builds a 1x1 real value.
func Scalar(x float64) *Value { return mat.Scalar(x) }

// Complex builds a 1x1 complex value.
func Complex(z complex128) *Value { return mat.ComplexScalar(z) }

// String builds a 1xN char row vector.
func String(s string) *Value { return mat.FromString(s) }

// Matrix builds an r x c real matrix from row-major data.
func Matrix(rows, cols int, rowMajor []float64) *Value {
	return mat.FromSlice(rows, cols, rowMajor)
}

// Zeros builds an r x c zero matrix.
func Zeros(rows, cols int) *Value { return mat.New(rows, cols) }

// Benchmarks exposes the paper's Table 1 suite.
func Benchmarks() []*bench.Benchmark { return bench.All() }

// Size presets for the benchmark suite.
const (
	SizeSmall  = bench.Small
	SizeMedium = bench.Medium
	SizePaper  = bench.Paper
)
