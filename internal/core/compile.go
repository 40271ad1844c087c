package core

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/ir"
	"repro/internal/opt"
	"repro/internal/persist"
	"repro/internal/regalloc"
	"repro/internal/repo"
	"repro/internal/telemetry"
	"repro/internal/types"
	"repro/internal/vm"
)

// LookupFunction also serves the inliner.
var _ inline.Resolver = (*Engine)(nil)

// pipelineOpts selects the code generation pipeline variant.
type pipelineOpts struct {
	// optimize runs the backend optimization passes — the stand-in for
	// the native C/Fortran compiler behind the "source" code generator.
	optimize bool
	// generic disables type-driven code selection extras (mcc tier).
	generic bool
	// boxedCalls keeps every user call boxed: no return summaries, hence
	// no guards. OSR continuations need it — a continuation resumes a
	// half-run activation, which cannot be abandoned and re-run.
	boxedCalls bool
}

// compiled is what the pipeline produces for one (function, signature):
// the code, and what the repository entry records about it.
type compiled struct {
	code *vm.Compiled
	// ret and deps become repo.Entry.Ret and Deps.
	ret  []types.Type
	deps []repo.Dep
}

// entry wraps the compile result as a repository entry.
func (c *compiled) entry(sig types.Signature, q repo.Quality, speculative bool) *repo.Entry {
	return &repo.Entry{Sig: sig, Code: c.code, Quality: q, Speculative: speculative, Ret: c.ret, Deps: c.deps}
}

// compile runs the full compiler (Figure 1 of the paper): inliner →
// disambiguator → type inference → code generation, accumulating
// per-phase times for the Figure 6 decomposition.
func (e *Engine) compile(fn *ast.Function, sig types.Signature, po pipelineOpts) (*compiled, error) {
	if len(sig) != len(fn.Ins) {
		return nil, &codegen.ErrUnsupported{Reason: "arity mismatch between signature and formals"}
	}

	// Pass 1+2: inlining and disambiguation.
	t0 := time.Now()
	var work *ast.Function
	out := &compiled{}
	if e.opts.DisableInlining || po.generic {
		// Disambiguation writes on the nodes it classifies; fn is shared
		// with every engine of the library, so it gets a private copy
		// (the inliner makes its own).
		work = ast.CloneFunction(fn)
	} else {
		var spliced []*ast.Function
		work, spliced = inline.ExpandDeps(fn, e)
		for _, callee := range spliced {
			if callee.Name != fn.Name {
				out.deps = append(out.deps, repo.Dep{Name: callee.Name, SrcHash: persist.HashSource(callee.Source)})
			}
		}
	}
	g := cfg.Build(work.Body)
	tbl := disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(name string) bool {
		return e.LookupFunction(name) != nil
	}))
	// Each phase duration is measured once and fed to both the
	// PhaseTimes atomic and the trace span, so span-category totals
	// reconcile with the Figure 6 decomposition exactly (modulo the
	// trace format's microsecond granularity).
	d0 := time.Since(t0)
	atomic.AddInt64(&e.timing.Disambig, d0.Nanoseconds())
	e.tracer.Span(telemetry.CatDisambig, fn.Name, e.id, t0, d0)
	if tbl.HasAmbiguous {
		return nil, &codegen.ErrUnsupported{Reason: "ambiguous or undefined symbols"}
	}

	// Pass 3: type inference.
	t1 := time.Now()
	params := make(map[string]types.Type, len(work.Ins))
	for i, p := range work.Ins {
		params[p] = sig[i]
	}
	res := e.inferWithSummaries(fn, work, sig, g, params, tbl, po, out)
	d1 := time.Since(t1)
	atomic.AddInt64(&e.timing.TypeInf, d1.Nanoseconds())
	e.tracer.Span(telemetry.CatTypeInf, fn.Name, e.id, t1, d1)

	// Pass 4: code generation (+ backend optimization + regalloc).
	t2 := time.Now()
	ccfg := e.codegenConfig(po)
	prog, err := codegen.Compile(work, res, tbl, ccfg)
	if err != nil {
		d2 := time.Since(t2)
		atomic.AddInt64(&e.timing.Codegen, d2.Nanoseconds())
		e.tracer.Span(telemetry.CatCodegen, fn.Name, e.id, t2, d2)
		return nil, err
	}
	if po.optimize {
		opt.Run(prog, e.optConfig())
	}
	if ccfg.FuseElemwise {
		// Redirect fused kernels to write into the assigned variable's
		// register so the VM can reuse its displaced buffer in place.
		// Runs in the JIT pipeline too (which skips opt.Run): the pass
		// is a single peephole, cheap enough for compile-latency mode.
		opt.FuseDst(prog)
	}
	ra := regalloc.DefaultOptions()
	ra.SpillAll = e.opts.SpillAll
	regalloc.Allocate(prog, ra)
	out.code, err = vm.Prepare(prog)
	d2 := time.Since(t2)
	atomic.AddInt64(&e.timing.Codegen, d2.Nanoseconds())
	e.tracer.Span(telemetry.CatCodegen, fn.Name, e.id, t2, d2)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Lower compiles a defined function the way the engine's tier would and
// returns the allocated program with the signature it was compiled for —
// what majicc -dump=asm prints: the JIT pipeline at sig under TierJIT, the
// optimising one under any other compiling tier, at the speculated
// signature when sig is nil. Nothing is published.
func (e *Engine) Lower(name string, sig types.Signature) (*ir.Prog, types.Signature, error) {
	fn := e.LookupFunction(name)
	if fn == nil {
		return nil, nil, fmt.Errorf("core: no function %q", name)
	}
	if sig == nil {
		var err error
		if sig, err = e.speculate(fn); err != nil {
			return nil, nil, err
		}
	}
	po := pipelineOpts{optimize: e.opts.Tier != TierJIT || e.opts.JITBackendOpts, generic: e.opts.Tier == TierMCC}
	c, err := e.compile(fn, sig, po)
	if err != nil {
		return nil, nil, err
	}
	return c.code.P, sig, nil
}

func (e *Engine) inferOpts() infer.Opts {
	return infer.Opts{
		NoRanges:    e.opts.DisableRanges,
		NoMinShapes: e.opts.DisableMinShapes,
	}
}

func (e *Engine) inferOptsFor(po pipelineOpts) infer.Opts {
	o := e.inferOpts()
	o.AllTop = po.generic
	return o
}

// codegenConfig models the platform- and tier-specific code selection
// behaviour (DESIGN.md §2): the mcc tier compiles generically; on the
// MIPS platform the JIT code generator is immature (the paper: "The
// JIT compiler on this platform is not yet completely implemented",
// with benchmarks running "at reduced performance due to the poor
// quality of the generated code"), so it loses its vector unrolling
// and dgemv fusion there.
func (e *Engine) codegenConfig(po pipelineOpts) codegen.Config {
	cfg := codegen.DefaultConfig()
	cfg.FuseElemwise = e.opts.FuseElemwise
	if po.generic {
		cfg.UnrollSmallVectors = false
		cfg.FuseGEMV = false
		cfg.FuseElemwise = false
	}
	if e.opts.Platform == PlatformMIPS && !po.optimize {
		cfg.UnrollSmallVectors = false
		cfg.FuseGEMV = false
		cfg.FuseElemwise = false
	}
	if po.optimize {
		cfg.UnrollLoops = e.optConfig().UnrollFactor
	}
	if e.opts.DisableGEMV {
		cfg.FuseGEMV = false
	}
	return cfg
}

// optConfig grades the simulated native backend: the MIPS compiler is
// "excellent" (deeper unrolling), the SPARC one mediocre.
func (e *Engine) optConfig() opt.Config {
	c := opt.DefaultConfig()
	if e.opts.Platform == PlatformMIPS {
		c.UnrollFactor = 4
	} else {
		c.UnrollFactor = 2
	}
	return c
}

// speculate derives the speculative signature for a function (paper
// §2.5): backward hint propagation alternating with forward passes.
func (e *Engine) speculate(fn *ast.Function) (types.Signature, error) {
	var work *ast.Function
	if e.opts.DisableInlining {
		work = ast.CloneFunction(fn) // see compile: never analyze the shared AST
	} else {
		work = inline.Expand(fn, e)
	}
	g := cfg.Build(work.Body)
	tbl := disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(name string) bool {
		return e.LookupFunction(name) != nil
	}))
	if tbl.HasAmbiguous {
		return nil, &codegen.ErrUnsupported{Reason: "ambiguous or undefined symbols"}
	}
	// The speculator needs the same formals the compile step will see;
	// speculation maps guesses back onto the original formal list.
	sig := infer.Speculate(work, g, e.inferOpts())
	if len(sig) != len(fn.Ins) {
		return nil, &codegen.ErrUnsupported{Reason: "speculation arity mismatch"}
	}
	return sig, nil
}
