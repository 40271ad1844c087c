package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/types"
)

// The three ways a program grows. Every loop carries invariant work, so
// LICM, copy propagation and DCE all have something to do in each.

// siblingLoops is k loops one after the other.
func siblingLoops(k int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n")
	for i := 1; i <= k; i++ {
		fmt.Fprintf(&b, "  for i%d = 1:n\n    a%d = n * %d + 1;\n    s = s + a%d * i%d;\n  end\n", i, i, i, i, i)
	}
	b.WriteString("end\n")
	return b.String()
}

// nestedLoops is one nest d loops deep, invariants at every level.
func nestedLoops(d int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n")
	for i := 1; i <= d; i++ {
		in := strings.Repeat("  ", i)
		fmt.Fprintf(&b, "%sfor i%d = 1:n\n%s  a%d = n * %d + 1;\n%s  b%d = a%d * 2 + n;\n%s  s = s + b%d * i%d;\n", in, i, in, i, i, in, i, i, in, i, i)
	}
	fmt.Fprintf(&b, "%ss = s + a%d * i%d;\n", strings.Repeat("  ", d+1), d, d)
	for i := d; i >= 1; i-- {
		fmt.Fprintf(&b, "%send\n", strings.Repeat("  ", i))
	}
	b.WriteString("end\n")
	return b.String()
}

// longBody is one loop whose body is n statements, each an invariant
// computed from the one before.
func longBody(n int) string {
	var b strings.Builder
	b.WriteString("function s = f(n)\n  s = 0;\n  for i = 1:n\n    t0 = n + 1;\n")
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "    t%d = t%d * 2 + n;\n", i, i-1)
	}
	fmt.Fprintf(&b, "    s = s + t%d * i;\n  end\nend\n", n)
	return b.String()
}

// stages holds one function at every point of the pipeline a pass
// starts from.
type stages struct {
	fn     *ast.Function
	sig    types.Signature
	g      *cfg.Graph
	tbl    *disambig.Table
	params map[string]types.Type
	prog   *ir.Prog // selected code, not yet optimised or allocated
}

func stagesOf(t *testing.T, src string) *stages {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	s := &stages{fn: file.Funcs[0], sig: types.SignatureOf([]*mat.Value{mat.IntScalar(10)})}
	work := ast.CloneFunction(s.fn)
	s.g = cfg.Build(work.Body)
	s.tbl = disambig.Analyze(s.g, work.Ins, nil)
	s.params = map[string]types.Type{work.Ins[0]: s.sig[0]}
	ccfg := codegen.DefaultConfig()
	ccfg.UnrollLoops = opt.DefaultConfig().UnrollFactor
	if s.prog, err = codegen.Compile(work, infer.Forward(s.g, s.params, infer.Opts{}), s.tbl, ccfg); err != nil {
		t.Fatal(err)
	}
	return s
}

func (s *stages) fresh() *ir.Prog {
	p := *s.prog
	p.Ins = append([]ir.Instr(nil), s.prog.Ins...)
	p.Params = append([]ir.ParamBinding(nil), s.prog.Params...)
	return &p
}

// TestCompileCostIsLinear states the compiler's cost contract: when a
// program doubles, whichever way it grows, no phase allocates more per
// instruction produced than it did before (twice the code, at most 2.2
// times the allocations), and the optimiser and the allocator — whose
// scratch is a fixed number of tables — stay under a flat budget per
// hundred instructions. The measure is per instruction because the
// families do not exactly double (only an innermost loop is unrolled, so
// a nest twice as deep is a little under twice the code). Allocation
// counts are exact, so the test is deterministic; time follows them
// (BenchmarkCompile reports it).
func TestCompileCostIsLinear(t *testing.T) {
	families := []struct {
		name         string
		src          func(int) string
		small, large int
	}{
		{"sibling loops", siblingLoops, 40, 80},
		{"nested loops", nestedLoops, 8, 16},
		{"long body", longBody, 150, 300},
	}
	// slack is for slices and maps that grow by doubling.
	const slack = 1.1
	// budget is allocations per hundred instructions produced, plus the
	// fixed tables.
	const budget, fixed = 1.0, 64.0
	e := New(Options{Tier: TierFalcon})
	defer e.Close()
	for _, fam := range families {
		small, large := stagesOf(t, fam.src(fam.small)), stagesOf(t, fam.src(fam.large))
		grew := float64(len(large.prog.Ins)) / float64(len(small.prog.Ins))
		if grew < 1.7 {
			t.Fatalf("%s: doubling the parameter grew the code only ×%.2f", fam.name, grew)
		}
		phases := []struct {
			name string
			run  func(*stages)
			flat bool // also held to the per-instruction budget
		}{
			{name: "disambig.Analyze", run: func(s *stages) { disambig.Analyze(s.g, s.fn.Ins, nil) }},
			{name: "infer.Forward", run: func(s *stages) { infer.Forward(s.g, s.params, infer.Opts{}) }},
			{name: "opt.Run", flat: true, run: func(s *stages) { opt.Run(s.fresh(), opt.DefaultConfig()) }},
			{name: "regalloc.Allocate", flat: true, run: func(s *stages) { regalloc.Allocate(s.fresh(), regalloc.DefaultOptions()) }},
			{name: "regalloc.Allocate(SpillAll)", flat: true, run: func(s *stages) {
				regalloc.Allocate(s.fresh(), regalloc.Options{FRegs: 24, IRegs: 24, CRegs: 8, SpillAll: true})
			}},
			{name: "Engine.compile", run: func(s *stages) {
				if _, err := e.compile(s.fn, s.sig, pipelineOpts{optimize: true}); err != nil {
					t.Fatal(err)
				}
			}},
		}
		for _, ph := range phases {
			a := testing.AllocsPerRun(3, func() { ph.run(small) })
			b := testing.AllocsPerRun(3, func() { ph.run(large) })
			t.Logf("%-14s %-28s %6.0f -> %6.0f allocations (×%.2f) for %5d -> %5d instructions (×%.2f)",
				fam.name, ph.name, a, b, b/a, len(small.prog.Ins), len(large.prog.Ins), grew)
			if b > slack*grew*a {
				t.Errorf("%s, %s: %.0f allocations at size %d, %.0f at size %d: ×%.2f for ×%.2f the code",
					fam.name, ph.name, a, fam.small, b, fam.large, b/a, grew)
			}
			if limit := fixed + budget*float64(len(large.prog.Ins))/100; ph.flat && b > limit {
				t.Errorf("%s, %s: %.0f allocations for %d instructions, budget %.0f",
					fam.name, ph.name, b, len(large.prog.Ins), limit)
			}
		}
	}
}

// TestZeroTripLoopsKeepValues runs what LICM's preheaders must not
// disturb: a loop that never runs leaves the variables it would have
// assigned as they were, in optimised code as in the interpreter.
func TestZeroTripLoopsKeepValues(t *testing.T) {
	const src = `
function y = f(m)
  t = 5;
  k = 7;
  for i = 1:m
    t = m * 2 + 1;
    for j = 1:m-2
      k = k + m * 3;
    end
  end
  y = t * 100 + k;
end`
	for _, m := range []float64{0, 1, 2, 3} {
		var want float64
		for _, tier := range []Tier{TierInterp, TierJIT, TierFalcon, TierSpec} {
			e := New(Options{Tier: tier})
			if err := e.Define(src); err != nil {
				t.Fatal(err)
			}
			e.Precompile()
			outs, err := e.Call("f", []*mat.Value{mat.Scalar(m)}, 1)
			if err != nil {
				t.Fatalf("[%s] f(%v): %v", tier, m, err)
			}
			got, _ := outs[0].Scalar()
			if tier == TierInterp {
				want = got
			} else if got != want {
				t.Errorf("[%s] f(%v) = %v, want %v", tier, m, got, want)
			}
			e.Close()
		}
	}
}
