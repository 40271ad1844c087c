package core

import (
	"fmt"
	"time"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
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

// frontEnd is passes 1–2 of the compiler: the body the later passes
// compile (inlined, or a private copy where nothing is inlined), its
// graph and the disambiguator's table. cfg.Build numbers the expressions
// and disambiguation writes its verdicts on the nodes; fn is shared with
// every engine of the library, so both write on the private copy (the
// inliner makes its own, and a clone carries what they wrote).
type frontEnd struct {
	work *ast.Function
	g    *cfg.Graph
	tbl  *disambig.Table
	// deps are the callees spliced in; they become repo.Entry.Deps.
	deps []repo.Dep
}

// frontEnd runs passes 1–2 for fn, timed as the disambig phase, and
// records them in low when Lower asks. generic (the mcc tier) and the
// inlining ablation inline nothing.
func (e *Engine) frontEnd(fn *ast.Function, generic bool, low *Lowering) (fe frontEnd, err error) {
	t0 := time.Now()
	if e.opts.Ablation == AblateInlining || generic {
		fe.work = ast.CloneFunction(fn)
	} else {
		// The inliner analysed fn's body to find what to splice; where it
		// spliced nothing, that analysis is the front end's.
		var spliced []*ast.Function
		fe.work, spliced, fe.g, fe.tbl = inline.ExpandDeps(fn, e)
		for _, callee := range spliced {
			if callee.Name != fn.Name {
				fe.deps = append(fe.deps, repo.Dep{Name: callee.Name, SrcHash: persist.HashSource(callee.Source)})
			}
		}
	}
	if fe.g == nil {
		fe.g = cfg.Build(fe.work.Body)
		fe.tbl = disambig.Analyze(fe.g, fe.work.Ins, disambig.ResolverFunc(func(name string) bool {
			return e.LookupFunction(name) != nil
		}))
	}
	e.phase(telemetry.CatDisambig, fn.Name, t0)
	if low != nil {
		low.Body, low.Graph, low.Symbols = fe.work, fe.g, fe.tbl
	}
	if fe.tbl.HasAmbiguous {
		return fe, &codegen.ErrUnsupported{Reason: "ambiguous or undefined symbols"}
	}
	return fe, nil
}

// phase records the time since t0 as a trace span of category cat.
func (e *Engine) phase(cat, name string, t0 time.Time) {
	e.tracer.Span(cat, name, e.id, t0, time.Since(t0))
}

// compile runs the full compiler (Figure 1 of the paper): inliner →
// disambiguator → type inference → code generation, each phase a trace
// span for the Figure 6 decomposition. fe, when set, is the
// front end the caller already ran for fn (speculation hands over its
// own); otherwise compile runs one. low, when set, records every stage.
func (e *Engine) compile(fn *ast.Function, sig types.Signature, po pipelineOpts, fe *frontEnd, low *Lowering) (*compiled, error) {
	if len(sig) != len(fn.Ins) {
		return nil, &codegen.ErrUnsupported{Reason: "arity mismatch between signature and formals"}
	}
	if fe == nil {
		own, err := e.frontEnd(fn, po.generic, low)
		if err != nil {
			return nil, err
		}
		fe = &own
	}
	out := &compiled{deps: fe.deps}

	// Pass 3: type inference.
	t1 := time.Now()
	params := make(map[string]types.Type, len(fe.work.Ins))
	for i, p := range fe.work.Ins {
		params[p] = sig[i]
	}
	res := e.inferWithSummaries(fn, fe.work, sig, fe.g, params, po, out)
	e.phase(telemetry.CatTypeInf, fn.Name, t1)
	if low != nil {
		low.Types = res
	}

	// Pass 4: code generation (+ backend optimization + regalloc).
	t2 := time.Now()
	defer e.phase(telemetry.CatCodegen, fn.Name, t2)
	ccfg := e.codegenConfig(po)
	prog, err := codegen.Compile(fe.work, res, fe.tbl, ccfg)
	if err != nil {
		return nil, err
	}
	if low != nil {
		low.IR = prog.Disasm()
	}
	if po.optimize {
		opt.Run(prog)
	}
	if ccfg.FuseElemwise {
		// Redirect fused kernels to write into the assigned variable's
		// register so the VM can reuse its displaced buffer in place.
		// Runs in the JIT pipeline too (which skips opt.Run): the pass
		// is a single peephole, cheap enough for compile-latency mode.
		opt.FuseDst(prog)
	}
	if low != nil {
		low.OptIR = prog.Disasm()
	}
	ra := regalloc.DefaultOptions()
	ra.SpillAll = e.opts.Ablation == AblateRegalloc
	regalloc.Allocate(prog, ra)
	if low != nil {
		low.Asm = prog.Disasm()
	}
	if out.code, err = vm.Prepare(prog); err != nil {
		return nil, err
	}
	return out, nil
}

// Lowering is every stage of one compile, as Lower records it. When a
// stage fails, the stages before it are still recorded.
type Lowering struct {
	// Sig is the signature compiled for: the one asked for, ⊤ throughout
	// under the mcc tier, or the speculated one.
	Sig types.Signature
	// Body is the inlined body, Graph its control-flow graph and Symbols
	// the disambiguator's table (its variables).
	Body    *ast.Function
	Graph   *cfg.Graph
	Symbols *disambig.Table
	// Types is the inference result at Sig.
	Types *infer.Result
	// IR, OptIR and Asm are the code as selected, after the backend
	// passes, and allocated: Asm is what the engine runs.
	IR, OptIR, Asm string
}

// Lower compiles a defined function the way the engine's tier does and
// returns every stage; nothing is published. The pipeline is the one
// whose code the engine runs at sig: a jit engine's miss compile, mcc's
// generic one at ⊤, and the optimising pipeline under falcon, spec (its
// speculative compile) and a tiered engine (its tier-up). A nil sig is
// the speculated signature, and the speculation's front end is the
// compile's. The interp tier compiles nothing.
func (e *Engine) Lower(name string, sig types.Signature) (*Lowering, error) {
	fn := e.LookupFunction(name)
	if fn == nil {
		return nil, fmt.Errorf("core: no function %q", name)
	}
	var po pipelineOpts
	switch {
	case e.opts.Tier == TierInterp:
		return nil, fmt.Errorf("core: the %s tier compiles nothing", e.opts.Tier)
	case e.opts.Tier == TierMCC:
		po.generic = true
		sig = topSignature(len(fn.Ins))
	case e.opts.Tier != TierJIT || e.repo.parks:
		po.optimize = true
	}
	low := &Lowering{Sig: sig}
	var fe *frontEnd
	if sig == nil {
		spec, own, err := e.speculate(fn, low)
		if err != nil {
			return low, err
		}
		low.Sig, fe = spec, &own
	}
	_, err := e.compile(fn, low.Sig, po, fe, low)
	return low, err
}

func (e *Engine) inferOpts() infer.Opts {
	return infer.Opts{
		NoRanges:    e.opts.Ablation == AblateRanges,
		NoMinShapes: e.opts.Ablation == AblateMinShapes,
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
		// The simulated native backend unrolls counted loops: the MIPS
		// compiler is "excellent" (deeper unrolling), the SPARC one
		// mediocre.
		cfg.UnrollLoops = 2
		if e.opts.Platform == PlatformMIPS {
			cfg.UnrollLoops = 4
		}
	}
	if e.opts.Ablation == AblateGEMV {
		cfg.FuseGEMV = false
	}
	return cfg
}

// speculate derives the speculative signature for a function (paper
// §2.5): backward hint propagation alternating with forward passes, timed
// as the typeinf phase. It returns its front end for the compile of the
// signature it found.
func (e *Engine) speculate(fn *ast.Function, low *Lowering) (types.Signature, frontEnd, error) {
	fe, err := e.frontEnd(fn, false, low)
	if err != nil {
		return nil, fe, err
	}
	t0 := time.Now()
	sig := infer.Speculate(fe.work, fe.g, e.inferOpts())
	e.phase(telemetry.CatTypeInf, fn.Name, t0)
	return sig, fe, nil
}
