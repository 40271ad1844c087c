// Package core implements the MaJIC engine: the MATLAB-like front end
// that interprets interactive code, defers function calls to the code
// repository, and coordinates the compilation tiers the paper evaluates
// (mcc-style generic compilation, FALCON-style batch compilation, JIT
// compilation, and speculative ahead-of-time compilation).
package core

import (
	"fmt"
	"io"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cancel"
	"repro/internal/compilequeue"
	"repro/internal/interp"
	"repro/internal/mat"
	"repro/internal/parallel"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/vm"
)

// Tier selects how function calls are executed.
type Tier uint8

const (
	// TierInterp interprets everything: the MATLAB baseline (ti).
	TierInterp Tier = iota
	// TierMCC compiles with all parameter types forced to ⊤ — generic
	// boxed library calls, no type specialization (the mcc comparator).
	TierMCC
	// TierFalcon compiles with exact runtime type signatures and the
	// full optimizing backend, batch style (the FALCON comparator;
	// compile time is excluded by the harness).
	TierFalcon
	// TierJIT compiles at call time with the fast JIT pipeline: exact
	// signatures, fast type inference, naive code generation.
	TierJIT
	// TierSpec uses speculative ahead-of-time compilation: type
	// signatures guessed by the speculator, optimizing backend; the JIT
	// covers speculation misses at run time.
	TierSpec
)

// String names the tier as the paper's figures do.
func (t Tier) String() string {
	switch t {
	case TierInterp:
		return "interp"
	case TierMCC:
		return "mcc"
	case TierFalcon:
		return "falcon"
	case TierJIT:
		return "jit"
	case TierSpec:
		return "spec"
	}
	return fmt.Sprintf("Tier(%d)", uint8(t))
}

// ParseTier maps a tier name (as printed by String) back to a Tier.
func ParseTier(s string) (Tier, error) {
	switch s {
	case "interp":
		return TierInterp, nil
	case "mcc":
		return TierMCC, nil
	case "falcon":
		return TierFalcon, nil
	case "jit":
		return TierJIT, nil
	case "spec":
		return TierSpec, nil
	}
	return 0, fmt.Errorf("unknown tier %q (interp|mcc|falcon|jit|spec)", s)
}

// Platform selects the simulated backend-quality profile used to
// reproduce the paper's SPARC vs MIPS contrast (see DESIGN.md §2).
type Platform uint8

const (
	// PlatformSPARC models the development platform: a mediocre native
	// compiler, so the optimizing (spec/falcon) backend gains less over
	// the JIT code generator.
	PlatformSPARC Platform = iota
	// PlatformMIPS models an excellent native compiler: the optimizing
	// backend applies its full pass pipeline plus deeper unrolling.
	PlatformMIPS
)

func (p Platform) String() string {
	if p == PlatformMIPS {
		return "mips"
	}
	return "sparc"
}

// Options configure an Engine.
type Options struct {
	Tier     Tier
	Platform Platform
	Out      io.Writer
	Seed     uint64

	// Optimization switches for the Figure 7 ablations. They affect the
	// JIT pipeline (and, where meaningful, the optimizing backend).
	DisableRanges    bool // no range propagation → subscript checks stay
	DisableMinShapes bool // no minimum-shape propagation → no unrolling
	SpillAll         bool // register allocator spills every variable
	DisableInlining  bool // no function inlining
	// DisableGEMV turns off the a*A*x + b*y → dgemv code selection
	// (ablation for the fusion rule of §2.6.1).
	DisableGEMV bool
	// FuseElemwise turns on elementwise fusion (§2.6.1's
	// temporary-elimination, extended to whole operator trees): maximal
	// trees of elementwise operators compile to single fused kernels
	// that run as one loop with no intermediate arrays. Off by default so
	// the baseline paper-mode measurements keep the
	// one-library-call-per-operator execution model.
	FuseElemwise bool
	// Library attaches the engine to a shared code library (function
	// sources + compiled-code repository + compile pool) instead of
	// constructing a private one. Engines sharing a Library share
	// compiled code: one engine's JIT miss populates entries every
	// other engine's locator can hit, and a redefinition by any engine
	// invalidates for all of them (generation-counted, so stale
	// in-flight compiles never resurrect). The evaluation daemon uses
	// this to amortize compilation across sessions. When nil (the
	// default), the engine builds a private library from AsyncCompile /
	// CompileWorkers / RepoMaxEntries and closes it on Close.
	Library *Library

	// RepoMaxEntries caps the live compiled entries per function in the
	// engine's private repository (least-hit eviction; 0 = unbounded).
	// Ignored when Library is set — the shared library's own cap rules.
	RepoMaxEntries int

	// JITBackendOpts runs the backend optimization passes inside the JIT
	// pipeline too — the paper's §5 what-if experiment ("room for future
	// enhancements of the JIT compiler"): compile time is still counted,
	// so the trade-off between optimization effort and compile latency
	// becomes measurable.
	JITBackendOpts bool

	// Tiered enables profile-guided tiered recompilation for TierJIT, the
	// repository's one upgrade path ("the generated code can later be
	// recompiled — and replaced in the repository — using a better
	// compiler"): calls start in the interpreter (first-eval latency stays
	// interpreter-fast), cheap counters at call entries and loop
	// back-edges feed a hotness profile per (function, widened
	// signature), and hot signatures are recompiled in the background at
	// QualityOpt with profile-narrowed types. Hot interpreter loops
	// transfer mid-run into compiled code via on-stack replacement; a
	// generation-checked guard deopts back to the interpreter on
	// redefinition or range violation, so results are bit-identical with
	// tiering on or off. Ignored by the other tiers, whose misses follow
	// AsyncCompile alone (the paper-mode measurements are untouched).
	Tiered bool
	// TierThreshold is the hotness threshold: a signature whose call
	// count reaches it is promoted, and an activation whose back-edge
	// count reaches it offers OSR. 0 means DefaultTierThreshold.
	TierThreshold int

	// AsyncCompile turns the repository into a background compilation
	// service (the paper's front end "defers function calls" while the
	// repository compiles "behind the scenes"): speculative jobs and
	// miss-triggered compiles run on a bounded worker pool instead of
	// the caller's goroutine, with single-flight deduplication so N
	// concurrent misses on one (function, widened signature) key
	// trigger exactly one compile. A jit/mcc/falcon caller waits for its
	// job; a spec caller never does — it interprets the call unless the
	// job has already finished. The option selects this, not the
	// existence of a pool: without it an engine compiles inline even on
	// a shared Library that owns one. Off by default, so the paper
	// reproductions and single-threaded measurements are unaffected.
	AsyncCompile bool
	// CompileWorkers bounds the async pool's concurrently executing
	// compile jobs. 0 means GOMAXPROCS. Ignored unless AsyncCompile.
	CompileWorkers int

	// Threads sets the dense-kernel worker count (internal/parallel):
	// blocked dgemm/dgemv, fused elementwise kernels, and the generic
	// elementwise loops partition their work across this many threads.
	// 0 inherits the process default (GOMAXPROCS unless some engine
	// already set it); 1 forces the serial code paths. Because every
	// parallel kernel preserves per-element operation order, results
	// are byte-for-byte identical for every Threads value. The setting
	// is process-wide (the worker pool is shared), so the last engine
	// to set a non-zero value wins.
	Threads int

	// Tracer, when set, receives per-eval trace spans: parse,
	// disambiguation, type inference, code generation, compile-queue
	// wait, execution, tier-up, and OSR transfer — each recorded with
	// the very same duration the engine adds to PhaseTimes, so a trace's
	// per-category totals reconcile with the Figure 6 decomposition. Nil
	// (the default) records nothing and adds no timing calls beyond the
	// ones PhaseTimes already makes.
	Tracer *telemetry.Tracer

	// Journal, when set (and Library is nil), attaches the tiering
	// event journal to the engine's private library: promotions,
	// evictions, snapshot load/flush, and cause-attributed deopts. With
	// a shared Library, the library's own journal rules.
	Journal *telemetry.Journal
}

// Engine is the public entry point: a MATLAB workspace plus the code
// library (function sources, compiled-code repository, compilation
// machinery) behind it.
type Engine struct {
	ctx  *builtins.Context
	opts Options
	// lib is the code library: private by default, shared across
	// engines when Options.Library is set. ownLib records ownership so
	// Close never shuts down a shared library's compile pool.
	lib       *Library
	ownLib    bool
	globals   map[string]*mat.Value
	workspace *interp.Env
	in        *interp.Interp
	repo      *repoState
	// cancelFlag is the cooperative-interruption flag polled at
	// interpreter and VM loop back-edges; Interrupt raises it.
	cancelFlag cancel.Flag
	// phase timing for Figure 6; accumulated with atomics because async
	// mode compiles on worker goroutines.
	timing PhaseTimes
	// tracer is Options.Tracer (nil-safe everywhere it is used); id is
	// the engine's trace lane (tid), distinct per engine so a daemon's
	// sessions separate in chrome://tracing.
	tracer *telemetry.Tracer
	id     int
}

// engineIDs hands out trace lanes.
var engineIDs atomic.Int64

// New creates an Engine.
func New(opts Options) *Engine {
	ctx := builtins.NewContext()
	if opts.Out != nil {
		ctx.Out = opts.Out
	}
	if opts.Seed != 0 {
		ctx.RNG.Seed(opts.Seed)
	}
	e := &Engine{
		ctx:     ctx,
		opts:    opts,
		globals: make(map[string]*mat.Value),
		tracer:  opts.Tracer,
		id:      int(engineIDs.Add(1)),
	}
	if opts.Library != nil {
		e.lib = opts.Library
	} else {
		e.lib = NewLibrary(LibraryOptions{
			AsyncCompile:   opts.AsyncCompile,
			CompileWorkers: opts.CompileWorkers,
			RepoMaxEntries: opts.RepoMaxEntries,
			Tiered:         opts.Tiered,
			Tracer:         opts.Tracer,
			Journal:        opts.Journal,
		})
		e.ownLib = true
	}
	e.workspace = interp.NewEnv(e.globals)
	e.in = interp.New(e)
	e.repo = newRepoState(e)
	if opts.Threads > 0 {
		parallel.SetDefaultThreads(opts.Threads)
	}
	return e
}

// Close shuts down the engine's private background compilation pool (a
// no-op in synchronous mode, or when the engine is attached to a shared
// Library — closing that is the library owner's job). Queued jobs
// finish first; calls made after Close compile inline, so the engine
// stays usable.
func (e *Engine) Close() {
	if e.ownLib {
		e.lib.Close()
	}
}

// Drain blocks until all in-flight background compile jobs have
// published (or been dropped as stale). A no-op in synchronous mode.
// Benchmarks use it to separate first-call latency from steady state.
func (e *Engine) Drain() {
	e.lib.Drain()
}

// QueueStats returns the async pool's counters (zero in sync mode).
func (e *Engine) QueueStats() compilequeue.Stats {
	return e.lib.QueueStats()
}

// DefaultTierThreshold is the hotness threshold used when Options.Tiered
// is set without an explicit TierThreshold: promotion after 8 calls of a
// widened signature, OSR offer after 8 loop back-edges in one
// activation. Low enough that a hot loop tiers up within its first eval,
// high enough that one-shot scripts never pay a compile.
const DefaultTierThreshold = 8

// tierThreshold resolves the engine's hotness threshold.
func (e *Engine) tierThreshold() int {
	if e.opts.TierThreshold > 0 {
		return e.opts.TierThreshold
	}
	return DefaultTierThreshold
}

// ProfileStats returns the tiering profile's counters (all zero when
// tiered execution never ran on this library).
func (e *Engine) ProfileStats() profile.Stats {
	return e.lib.ProfileStats()
}

// Library returns the engine's code library (shared or private).
func (e *Engine) Library() *Library { return e.lib }

// CancelFlag exposes the engine's interruption flag; the interpreter
// and VM discover it through the cancel.Checker interface and poll it
// at loop back-edges.
func (e *Engine) CancelFlag() *cancel.Flag { return &e.cancelFlag }

// Interrupt requests cooperative cancellation of whatever the engine is
// executing: the current evaluation aborts with cancel.ErrInterrupted
// at its next loop back-edge or function call. Safe from any goroutine
// (deadline timers, signal handlers). The flag stays raised until
// ResetInterrupt, so an eval that races the raise still aborts.
func (e *Engine) Interrupt() { e.cancelFlag.Raise() }

// ResetInterrupt lowers the interruption flag so the engine can run
// again.
func (e *Engine) ResetInterrupt() { e.cancelFlag.Clear() }

// Options returns the engine's configuration.
func (e *Engine) Options() Options { return e.opts }

// EffectiveThreads returns the dense-kernel thread count this engine's
// kernels actually run with: its Threads option if set, otherwise the
// process default (which another engine or SetDefaultThreads may have
// configured).
func (e *Engine) EffectiveThreads() int {
	if e.opts.Threads > 0 {
		return e.opts.Threads
	}
	return parallel.DefaultThreads()
}

// Context implements interp.Host.
func (e *Engine) Context() *builtins.Context { return e.ctx }

// LookupFunction implements interp.Host. It is safe to call from any
// goroutine (compile jobs resolve functions from the worker pool).
func (e *Engine) LookupFunction(name string) *ast.Function {
	return e.lib.Lookup(name)
}

// Functions returns the names of all registered user functions.
func (e *Engine) Functions() []string {
	return e.lib.Names()
}

// Define registers the functions found in src with the repository (the
// analog of dropping a .m file into a snooped source directory). Script
// statements in src are rejected here; use EvalString for those.
func (e *Engine) Define(src string) error {
	file, err := parser.Parse(src)
	if err != nil {
		return err
	}
	if len(file.Stmts) > 0 {
		return fmt.Errorf("Define: source contains script statements; use EvalString")
	}
	for _, fn := range file.Funcs {
		e.registerFunction(fn)
	}
	return nil
}

func (e *Engine) registerFunction(fn *ast.Function) {
	e.lib.register(fn)
}

// Precompile runs the repository's speculative ahead-of-time
// compilation over every registered function — the paper's scenario
// where "MaJIC's repository had ample time to find them and compile
// them speculatively". It is a no-op unless the engine runs TierSpec.
func (e *Engine) Precompile() {
	if e.opts.Tier != TierSpec {
		return
	}
	for _, st := range e.lib.defined() {
		has := false
		for _, entry := range st.Entries {
			if entry.Speculative {
				has = true
				break
			}
		}
		if !has {
			e.repo.precompile(st)
		}
	}
}

// EvalString parses and executes src in the engine workspace. Function
// definitions in src are registered; script statements execute in the
// interactive front end (interpreted, with calls deferred per the tier).
func (e *Engine) EvalString(src string) error {
	if e.tracer == nil {
		file, err := parser.Parse(src)
		if err != nil {
			return err
		}
		for _, fn := range file.Funcs {
			e.registerFunction(fn)
		}
		return e.in.ExecStmts(file.Stmts, e.workspace)
	}

	// Traced path: one eval span enclosing a parse span (the compile and
	// exec spans inside are emitted where PhaseTimes is accumulated).
	t0 := time.Now()
	file, err := parser.Parse(src)
	e.tracer.Span(telemetry.CatParse, "parse", e.id, t0, time.Since(t0))
	if err != nil {
		e.tracer.Span(telemetry.CatEval, "eval", e.id, t0, time.Since(t0))
		return err
	}
	for _, fn := range file.Funcs {
		e.registerFunction(fn)
	}
	err = e.in.ExecStmts(file.Stmts, e.workspace)
	e.tracer.Span(telemetry.CatEval, "eval", e.id, t0, time.Since(t0))
	return err
}

// Workspace returns the value of a workspace variable.
func (e *Engine) Workspace(name string) (*mat.Value, bool) {
	return e.workspace.Lookup(name)
}

// WorkspaceNames returns the names bound in the interactive workspace
// (the REPL's who command).
func (e *Engine) WorkspaceNames() []string {
	names := e.workspace.Names()
	sort.Strings(names)
	return names
}

// SetWorkspace binds a workspace variable.
func (e *Engine) SetWorkspace(name string, v *mat.Value) {
	v.MarkShared()
	e.workspace.Bind(name, v)
}

// Call invokes the named user function with the given arguments through
// the engine's execution tier. This is the "invocation" protocol of the
// paper's front end: the interpreter builds the function name plus
// parameter values and passes the work to the code repository.
func (e *Engine) Call(name string, args []*mat.Value, nout int) ([]*mat.Value, error) {
	return e.CallFunction(name, args, nout)
}

// resolve is the prologue of every call: the call-entry safepoint (loops
// poll the cancel flag at back-edges; this check covers loop-free
// infinite recursion, every recursive cycle contains a call) and one
// load that resolves the name to its definition, generation and compiled
// entries, all from the same instant.
func (e *Engine) resolve(name string) (*repo.FuncState, error) {
	if e.cancelFlag.Raised() {
		return nil, cancel.ErrInterrupted
	}
	st := e.lib.repo.State(name)
	if st.Fn == nil {
		return nil, fmt.Errorf("undefined function %q", name)
	}
	return st, nil
}

// CallFunction implements interp.Host: route a function call through
// the configured tier. It is the boxed side of the call boundary — the
// interpreter, Engine.Call and the daemon's evals arrive here — so
// whatever compiled code hands back in a register is boxed on the way
// out, with the kind the callee's epilogue always gave it.
//
// Concurrency: with AsyncCompile enabled, CallFunction (and Call) may
// be used from multiple goroutines against one shared engine — the
// repository, compile pool, and compiled code are concurrency-safe.
// Functions that touch `global` variables remain single-client-only,
// as do EvalString and the workspace accessors (one MATLAB workspace,
// like one MATLAB session).
func (e *Engine) CallFunction(name string, args []*mat.Value, nout int) ([]*mat.Value, error) {
	st, err := e.resolve(name)
	if err != nil {
		return nil, err
	}
	nout = max(nout, 1)
	if e.opts.Tier == TierInterp {
		return e.in.CallFunction(st.Fn, args, nout, e.globals)
	}
	var buf [sigBuf]vm.Operand
	outs, err := e.repo.invoke(st, vm.Boxed(buf[:0], args), nout, nil)
	if err != nil {
		return nil, err
	}
	return vm.BoxAll(nil, outs), nil
}

// CallUser implements vm.Host: a call made by the compiled activation
// that owns caller, whose callee — when compiled too — runs on the next
// frame of its chain, takes scalar arguments from args in the register
// class they were computed in and returns scalar results the same way.
func (e *Engine) CallUser(name string, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	st, err := e.resolve(name)
	if err != nil {
		return nil, err
	}
	return e.repo.invoke(st, args, max(nout, 1), caller)
}

// Interpret runs the function through the interpreter regardless of
// tier (used by differential tests and the harness baseline).
func (e *Engine) Interpret(name string, args []*mat.Value, nout int) ([]*mat.Value, error) {
	fn := e.LookupFunction(name)
	if fn == nil {
		return nil, fmt.Errorf("undefined function %q", name)
	}
	return e.in.CallFunction(fn, args, nout, e.globals)
}

// PhaseTimes accumulates per-phase compilation time, reproducing the
// decomposition of Figure 6 (disambiguation, type inference, code
// generation) plus execution.
type PhaseTimes struct {
	Disambig int64 // nanoseconds
	TypeInf  int64
	Codegen  int64
	Exec     int64
}

// Timing returns the accumulated phase times (atomic snapshot: async
// compile jobs accumulate from worker goroutines).
func (e *Engine) Timing() PhaseTimes {
	return PhaseTimes{
		Disambig: atomic.LoadInt64(&e.timing.Disambig),
		TypeInf:  atomic.LoadInt64(&e.timing.TypeInf),
		Codegen:  atomic.LoadInt64(&e.timing.Codegen),
		Exec:     atomic.LoadInt64(&e.timing.Exec),
	}
}

// ResetTiming clears accumulated phase times.
func (e *Engine) ResetTiming() {
	atomic.StoreInt64(&e.timing.Disambig, 0)
	atomic.StoreInt64(&e.timing.TypeInf, 0)
	atomic.StoreInt64(&e.timing.Codegen, 0)
	atomic.StoreInt64(&e.timing.Exec, 0)
}
