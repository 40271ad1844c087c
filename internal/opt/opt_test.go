package opt

import (
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

// compileSrc lowers a single function to unoptimized IR.
func compileSrc(t *testing.T, src string, params map[string]types.Type) *ir.Prog {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	tbl := disambig.Analyze(g, fn.Ins, nil)
	if params == nil {
		params = map[string]types.Type{}
	}
	res := infer.Forward(g, params, infer.Opts{})
	prog, err := codegen.Compile(fn, res, tbl, codegen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

func countOp(p *ir.Prog, op ir.Op) int {
	n := 0
	for _, in := range p.Ins {
		if in.Op == op {
			n++
		}
	}
	return n
}

// runPasses runs a subset of Run's pipeline, then compacts as Run does.
func runPasses(p *ir.Prog, passes ...func(*ir.Prog, *scratch)) {
	sc := scratchPool.Get()
	defer sc.put()
	for _, pass := range passes {
		pass(p, sc)
	}
	compact(p, sc)
}

func TestConstantFolding(t *testing.T) {
	p := compileSrc(t, `
function y = f()
  a = 2 + 3;
  b = a * 4;
  y = b - 1;
end`, nil)
	runPasses(p, foldConstants, eliminateDeadCode)
	// all arithmetic folds away; only constants and the epilogue remain
	for _, op := range []ir.Op{ir.OpFAdd, ir.OpFMul, ir.OpFSub, ir.OpIAdd, ir.OpIMul, ir.OpISub} {
		if n := countOp(p, op); n > 0 {
			t.Errorf("%v ops remain after folding:\n%s", op, p.Disasm())
		}
	}
}

func TestCSERemovesRecomputation(t *testing.T) {
	p := compileSrc(t, `
function y = f(a, b)
  y = (a*b + 1) * (a*b + 2);
end`, map[string]types.Type{
		"a": types.ScalarOf(types.IReal, types.RangeTop),
		"b": types.ScalarOf(types.IReal, types.RangeTop),
	})
	before := countOp(p, ir.OpFMul)
	runPasses(p, localCSE, eliminateDeadCode)
	after := countOp(p, ir.OpFMul)
	if after >= before {
		t.Errorf("CSE did not reduce multiplies: %d → %d\n%s", before, after, p.Disasm())
	}
}

func TestLICMHoists(t *testing.T) {
	p := compileSrc(t, `
function s = f(a, b)
  s = 0;
  for i = 1:100
    s = s + a*b;
  end
end`, map[string]types.Type{
		"a": types.ScalarOf(types.IReal, types.RangeTop),
		"b": types.ScalarOf(types.IReal, types.RangeTop),
	})
	// find the loop region and check a*b's multiply moved before it
	findLoop := func(p *ir.Prog) (lo, hi int) {
		for pos := range p.Ins {
			if tgt := p.Ins[pos].Target(); tgt != nil && int(*tgt) <= pos {
				return int(*tgt), pos
			}
		}
		return -1, -1
	}
	mulsInLoop := func(p *ir.Prog) int {
		lo, hi := findLoop(p)
		n := 0
		for pos := lo; pos <= hi && pos >= 0; pos++ {
			if p.Ins[pos].Op == ir.OpFMul {
				n++
			}
		}
		return n
	}
	before := mulsInLoop(p)
	runPasses(p, hoistInvariants, eliminateDeadCode)
	after := mulsInLoop(p)
	if before == 0 {
		t.Skip("no multiply found in loop (codegen changed)")
	}
	if after >= before {
		t.Errorf("LICM left %d (of %d) multiplies in the loop:\n%s", after, before, p.Disasm())
	}
}

func TestDCERemovesDeadPureOps(t *testing.T) {
	p := compileSrc(t, `
function y = f(a)
  dead = a * 42;
  y = a + 1;
end`, map[string]types.Type{
		"a": types.ScalarOf(types.IReal, types.RangeTop),
	})
	runPasses(p, eliminateDeadCode)
	// the dead multiply must be gone (dead's value is never used)
	if n := countOp(p, ir.OpFMul); n != 0 {
		t.Errorf("dead multiply survived DCE:\n%s", p.Disasm())
	}
	// the live add stays
	if countOp(p, ir.OpFAdd) == 0 && countOp(p, ir.OpIAdd) == 0 {
		t.Errorf("live add was removed:\n%s", p.Disasm())
	}
}

func TestOptRefusesAllocatedProgram(t *testing.T) {
	p := compileSrc(t, `
function y = f()
  y = 1;
end`, nil)
	p.Allocated = true
	defer func() {
		if recover() == nil {
			t.Error("Run on an allocated program must panic")
		}
	}()
	Run(p)
}

func TestDisasmStable(t *testing.T) {
	p := compileSrc(t, `
function y = f()
  y = 1 + 2;
end`, nil)
	d := p.Disasm()
	if !strings.Contains(d, "func f:") || !strings.Contains(d, "ret") {
		t.Errorf("disasm:\n%s", d)
	}
}

// TestFuseDstKeepsTheTempOfAbortableKernels: a fused statement is
// redirected into its variable's register unless the kernel reads that
// variable and can abort (.^, sqrt) — such a kernel may not write over
// its operand, so it keeps the swap and with it a second buffer to
// alternate with.
func TestFuseDstKeepsTheTempOfAbortableKernels(t *testing.T) {
	for _, c := range []struct {
		src       string
		redirects bool
	}{
		{"x = x + a .* 2 - a ./ 4;", true},
		{"x = x ./ 2 + a .^ 2;", false},
		{"x = sqrt(x) + a .* 2;", false},
		{"x = a ./ 2 + a .^ 2;", true},
	} {
		src := "function x = f(a)\n  x = a + a;\n  for k = 1:3\n    " + c.src + "\n  end\nend\n"
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		fn := file.Funcs[0]
		g := cfg.Build(fn.Body)
		tbl := disambig.Analyze(g, fn.Ins, nil)
		vecT := types.Type{I: types.IReal, MinShape: types.Shape{R: types.Fin(1), C: types.Fin(20)}, MaxShape: types.Shape{R: types.Fin(1), C: types.Fin(20)}}
		res := infer.Forward(g, map[string]types.Type{"a": vecT}, infer.Opts{})
		cfgc := codegen.DefaultConfig()
		cfgc.FuseElemwise = true
		p, err := codegen.Compile(fn, res, tbl, cfgc)
		if err != nil {
			t.Fatal(err)
		}
		if countOp(p, ir.OpVFused) != 1 {
			t.Fatalf("%q: want exactly one fused kernel:\n%s", c.src, p.Disasm())
		}
		swaps := countOp(p, ir.OpVMovSwap)
		FuseDst(p)
		if got := countOp(p, ir.OpVMovSwap) == swaps-1; got != c.redirects {
			t.Errorf("%q: kernel redirected into x = %v, want %v:\n%s", c.src, got, c.redirects, p.Disasm())
		}
	}
}
