// Package core implements the MaJIC engine: the MATLAB-like front end
// that interprets interactive code, defers function calls to the code
// repository, and coordinates the compilation tiers the paper evaluates
// (mcc-style generic compilation, FALCON-style batch compilation, JIT
// compilation, and speculative ahead-of-time compilation).
package core

import (
	"fmt"
	"io"
	"slices"
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

// Production is the fast path, the configuration the daemon starts in:
// tiered JIT (compile a function that loops before its first run,
// interpret the others first and promote their hot signatures)
// with compiles on the background pool and elementwise trees fused into
// single kernels. Compile workers and kernel threads stay at their
// GOMAXPROCS defaults.
func Production() Options {
	return Options{Tier: TierJIT, Tiered: true, AsyncCompile: true, FuseElemwise: true}
}

// Preset maps a -tier value to the configuration it names: one of the
// paper's five execution strategies in paper mode (synchronous compiles,
// one library call per operator), or prod for Production.
func Preset(name string) (Options, error) {
	if name == "prod" {
		return Production(), nil
	}
	t, err := ParseTier(name)
	if err != nil {
		return Options{}, fmt.Errorf("unknown tier %q (interp|mcc|falcon|jit|spec|prod)", name)
	}
	return Options{Tier: t}, nil
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

// Ablation names one optimization an engine leaves out, so an
// experiment can measure what it is worth: one value per Figure 7 bar
// and per design-choice ablation. Results never change, only speed.
type Ablation uint8

const (
	// AblateNone leaves every optimization on.
	AblateNone Ablation = iota
	// AblateRanges drops range propagation: every range is ⊤, so
	// subscript checks stay.
	AblateRanges
	// AblateMinShapes drops minimum-shape propagation: no exact shapes,
	// so no unrolling of small vector operations.
	AblateMinShapes
	// AblateRegalloc has the register allocator spill every variable.
	AblateRegalloc
	// AblateInlining compiles every user call as a call.
	AblateInlining
	// AblateGEMV drops the a*A*x + b*y → dgemv code selection (§2.6.1).
	AblateGEMV

	numAblations // the count of values above, for tests that visit each
)

// Options configure an Engine.
type Options struct {
	Tier     Tier
	Platform Platform
	Out      io.Writer
	Seed     uint64

	// Ablation disables one optimization for the Figure 7 and
	// design-choice ablations; the zero value disables none.
	Ablation Ablation
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
	// default), the engine builds a private library from AsyncCompile
	// and Tiered (unbounded, GOMAXPROCS compile workers) and closes it on
	// Close; a caller that wants a repository cap or a worker count
	// builds the Library with LibraryOptions.
	Library *Library

	// Tiered enables tiered recompilation for TierJIT: "the generated
	// code can later be recompiled — and replaced in the repository —
	// using a better compiler". A miss on a function with no for or while
	// in its body compiles nothing; it parks an interpret-only placeholder
	// for the widened signature, so a call that runs each statement once
	// is never held up by a compile. The placeholder counts the calls it
	// serves, and at DefaultTierThreshold it is replaced by code compiled
	// in the background at QualityOpt at the signature it was parked at —
	// the one tier-up rule, which also replaces a speculative entry whose
	// calls keep bringing narrower classes. A miss on a function that
	// loops compiles that same widened signature at QualityOpt before the
	// call runs, as the paper's JIT compiles before a first call, and the
	// call runs the result. Results are bit-identical with tiering on or
	// off. Ignored by the other tiers, whose misses follow AsyncCompile
	// alone (the paper-mode measurements are untouched).
	Tiered bool

	// AsyncCompile turns the repository into a background compilation
	// service (the paper's front end "defers function calls" while the
	// repository compiles "behind the scenes"): speculative jobs and
	// miss-triggered compiles run on a bounded worker pool instead of
	// the caller's goroutine, with single-flight deduplication so N
	// concurrent misses on one (function, widened signature) key
	// trigger exactly one compile. The caller waits for its job on every
	// compiling tier: a spec caller's miss is the JIT fallback for a
	// signature its speculation did not cover, and it runs that code as
	// a jit caller does. The option selects this, not the existence of
	// a pool: without it an engine compiles inline even on a shared
	// Library that owns one. Off by default, so the paper reproductions
	// and single-threaded measurements are unaffected.
	AsyncCompile bool

	// Threads sets the process-wide dense-kernel worker count
	// (internal/parallel): blocked dgemm/dgemv, fused elementwise
	// kernels, and the generic elementwise loops partition their work
	// across parallel.DefaultThreads() threads, and New sets that default
	// from a non-zero Threads. It is not a per-engine setting: the last
	// engine built with a non-zero value sets it for every engine in the
	// process, those built earlier included. 0 leaves the default alone
	// (GOMAXPROCS unless something set it); 1 forces the serial code
	// paths. Because every parallel kernel preserves per-element
	// operation order, results are byte-for-byte identical for every
	// value.
	Threads int

	// Tracer, when set, receives per-eval trace spans: parse,
	// disambiguation, type inference, code generation, compile-queue
	// wait, execution and tier-up. The trace is the engine's only record
	// of phase time: the Figure 6 decomposition is its per-category self
	// time. Nil (the default) records nothing, and an untraced call reads
	// no clock.
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
			AsyncCompile: opts.AsyncCompile,
			Tiered:       opts.Tiered,
			Tracer:       opts.Tracer,
			Journal:      opts.Journal,
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

// DefaultTierThreshold is the hotness threshold: the number of calls
// after which an entry a better compile could replace is replaced (every
// call a Tiered placeholder serves; the calls from outside compiled code
// that bring a speculative entry, on any tier that holds them, a narrower
// scalar class). A placeholder only serves a loop-free function, whose
// calls cost about as much interpreted as the compile would: low enough
// that a function called from a hot loop tiers up within its first eval,
// high enough that one-shot scripts never pay a compile.
const DefaultTierThreshold = 8

// ProfileStats returns the tiering counters (all zero when
// nothing on this library ran tiered or tiered up).
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
// A function that already holds optimised code at its generation — the
// speculator's entry, or the one that replaced it with the classes its
// calls brought (specialise) — is not speculated again.
func (e *Engine) Precompile() {
	if e.opts.Tier != TierSpec {
		return
	}
	for _, st := range e.lib.defined() {
		if !slices.ContainsFunc(st.Entries, func(en *repo.Entry) bool { return en.Quality == repo.QualityOpt }) {
			e.repo.precompile(st)
		}
	}
}

// EvalString parses and executes src in the engine workspace. Function
// definitions in src are registered; script statements execute in the
// interactive front end (interpreted, with calls deferred per the tier).
func (e *Engine) EvalString(src string) error {
	// Traced, one eval span encloses a parse span (the compile and exec
	// spans inside are emitted where those phases run); untraced, no
	// clock is read.
	traced := e.tracer != nil
	var t0 time.Time
	if traced {
		t0 = time.Now()
	}
	file, err := parser.Parse(src)
	if traced {
		e.tracer.Span(telemetry.CatParse, "parse", e.id, t0, time.Since(t0))
	}
	if err == nil {
		for _, fn := range file.Funcs {
			e.registerFunction(fn)
		}
		err = e.in.ExecStmts(file.Stmts, e.workspace)
	}
	if traced {
		e.tracer.Span(telemetry.CatEval, "eval", e.id, t0, time.Since(t0))
	}
	return err
}

// Workspace returns the value of a workspace variable.
func (e *Engine) Workspace(name string) (*mat.Value, bool) {
	return e.workspace.Lookup(name)
}

// WorkspaceNames returns the names bound in the interactive workspace
// (the REPL's who command), leaving out the temporaries a script's
// lowered switch binds there.
func (e *Engine) WorkspaceNames() []string {
	names := slices.DeleteFunc(e.workspace.Names(), ast.IsTemp)
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
	outs, err := e.repo.invoke(st, vm.Boxed(buf[:0], args), nout, nil, nil)
	if err != nil {
		return nil, err
	}
	return vm.BoxAll(nil, outs), nil
}

// CallUser implements vm.Host: a call made by the compiled activation
// that owns caller, whose callee — when compiled too — runs on the next
// frame of its chain, takes scalar arguments from args in the register
// class they were computed in and returns scalar results the same way.
// A call its site's record answers (siteRecord) skips the locator.
func (e *Engine) CallUser(site *vm.CallSite, args []vm.Operand, nout int, caller *vm.Frame) ([]vm.Operand, error) {
	nout = max(nout, 1)
	if rec, _ := site.Memo().(*siteRecord); rec != nil && !e.cancelFlag.Raised() && rec.serves(e.repo.r, args) {
		return e.repo.runSite(rec, args, nout, caller)
	}
	st, err := e.resolve(site.Name)
	if err != nil {
		return nil, err
	}
	return e.repo.invoke(st, args, nout, caller, site)
}

// Interpret runs the function through the interpreter regardless of
// tier (the differential tests' reference).
func (e *Engine) Interpret(name string, args []*mat.Value, nout int) ([]*mat.Value, error) {
	fn := e.LookupFunction(name)
	if fn == nil {
		return nil, fmt.Errorf("undefined function %q", name)
	}
	return e.in.CallFunction(fn, args, nout, e.globals)
}
