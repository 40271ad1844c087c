package regalloc

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/ir"
	"repro/internal/parser"
	"repro/internal/types"
)

func compileSrc(t *testing.T, src string) *ir.Prog {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	fn := file.Funcs[0]
	g := cfg.Build(fn.Body)
	tbl := disambig.Analyze(g, fn.Ins, nil)
	params := map[string]types.Type{}
	for _, p := range fn.Ins {
		params[p] = types.ScalarOf(types.IReal, types.RangeTop)
	}
	res := infer.Forward(g, params, infer.Opts{})
	prog, err := codegen.Compile(fn, res, tbl, codegen.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

const manyVars = `
function y = f(a, b)
  c = a + b;
  d = a - b;
  e = a * b;
  g = a / (b + 1);
  h = c + d;
  k = e + g;
  m = h * k;
  n = c * d * e;
  p = m + n + a;
  q = p - h;
  r = q * 2;
  s = r + c;
  t = s - d;
  u = t * e;
  v = u + g;
  w = v - h;
  x = w + k;
  y = x + m + n + p + q + r + s + t + u + v + w;
end`

func TestAllocationBoundsRegisters(t *testing.T) {
	p := compileSrc(t, manyVars)
	virtBefore := p.NumF
	opts := Options{FRegs: 6, IRegs: 4, CRegs: 2}
	Allocate(p, opts)
	if !p.Allocated {
		t.Fatal("Allocated flag not set")
	}
	// every F register written must now be < FRegs + 3 scratch, and every
	// one read either that or a constant, in the area that follows
	limit := int32(6 + 3)
	for pos, in := range p.Ins {
		d, hasDef := in.Def()
		for _, o := range fOperands(&in) {
			if r := *o.Reg; r >= limit+int32(len(p.ConstF)) || r >= limit && hasDef && o.Reg == d.Reg {
				t.Fatalf("instr %d references f%d, limit %d and %d constants (had %d virtuals)\n%s",
					pos, r, limit, len(p.ConstF), virtBefore, p.Disasm())
			}
		}
	}
	if len(p.ConstF) == 0 {
		t.Error("the program's literals are not in its constant table")
	}
	if want := limit + int32(len(p.ConstF)); p.NumF != want {
		t.Errorf("NumF = %d, want %d", p.NumF, want)
	}
}

// fOperands lists an instruction's F-bank operands (reads, then the
// write) using the shared metadata.
func fOperands(in *ir.Instr) []ir.Operand {
	var out []ir.Operand
	var buf [3]ir.Operand
	ops := in.Uses(&buf)
	if d, ok := in.Def(); ok {
		ops = append(ops, d)
	}
	for _, o := range ops {
		if o.Bank == ir.BankF {
			out = append(out, o)
		}
	}
	return out
}

func TestSpillAllRewritesEverything(t *testing.T) {
	p := compileSrc(t, manyVars)
	before := len(p.Ins)
	opts := DefaultOptions()
	opts.SpillAll = true
	Allocate(p, opts)
	if len(p.Ins) <= before {
		t.Fatalf("spill-all did not grow the program: %d → %d", before, len(p.Ins))
	}
	loads, stores := 0, 0
	for _, in := range p.Ins {
		switch in.Op {
		case ir.OpFLdSlot, ir.OpILdSlot, ir.OpCLdSlot:
			loads++
		case ir.OpFStSlot, ir.OpIStSlot, ir.OpCStSlot:
			stores++
		}
	}
	if loads == 0 || stores == 0 {
		t.Fatalf("spill code missing: %d loads, %d stores", loads, stores)
	}
	if p.SlotsF == 0 {
		t.Error("no F slots allocated")
	}
}

func TestAllocateIdempotent(t *testing.T) {
	p := compileSrc(t, manyVars)
	Allocate(p, DefaultOptions())
	n := len(p.Ins)
	Allocate(p, DefaultOptions()) // second call must be a no-op
	if len(p.Ins) != n {
		t.Error("double allocation modified the program")
	}
}

func TestBranchTargetsStayValid(t *testing.T) {
	p := compileSrc(t, `
function s = f(n)
  s = 0;
  for i = 1:n
    if s > 100
      s = s - 50;
    else
      s = s + i;
    end
  end
end`)
	opts := DefaultOptions()
	opts.SpillAll = true // maximal rewriting stress
	Allocate(p, opts)
	for pos, in := range p.Ins {
		var tgt int32 = -1
		switch in.Op {
		case ir.OpJmp:
			tgt = in.A
		case ir.OpBrTrueF, ir.OpBrFalseF, ir.OpBrFalseV, ir.OpBrTrueV,
			ir.OpBrFLt, ir.OpBrFLe, ir.OpBrFEq, ir.OpBrFNe, ir.OpBrFNLt, ir.OpBrFNLe,
			ir.OpBrILt, ir.OpBrILe, ir.OpBrIEq, ir.OpBrINe:
			tgt = in.C
		}
		if tgt >= 0 && int(tgt) > len(p.Ins) {
			t.Fatalf("instr %d branches to %d beyond end %d", pos, tgt, len(p.Ins))
		}
	}
}

// TestNoLiveIntervalConflict verifies the core allocation invariant: two
// simultaneously live virtual registers never share a physical register.
// We re-derive intervals from the pre-allocation program and simulate.
func TestNoLiveIntervalConflict(t *testing.T) {
	p := compileSrc(t, manyVars)
	// capture virtual→use positions before allocation
	type ref struct {
		pos  int
		vreg int32
	}
	var frefs []ref
	for pos := range p.Ins {
		for _, o := range fOperands(&p.Ins[pos]) {
			frefs = append(frefs, ref{pos, *o.Reg})
		}
	}
	intervals := map[int32][2]int{}
	for _, r := range frefs {
		iv, ok := intervals[r.vreg]
		if !ok {
			intervals[r.vreg] = [2]int{r.pos, r.pos}
			continue
		}
		if r.pos < iv[0] {
			iv[0] = r.pos
		}
		if r.pos > iv[1] {
			iv[1] = r.pos
		}
		intervals[r.vreg] = iv
	}

	// allocate a copy and read back the mapping through the rewritten
	// program: with no spills (plenty of registers) positions align.
	opts := Options{FRegs: 64, IRegs: 64, CRegs: 8}
	Allocate(p, opts)
	phys := map[int32]int32{}
	i := 0
	for pos := range p.Ins {
		for _, o := range fOperands(&p.Ins[pos]) {
			v := frefs[i].vreg
			if old, ok := phys[v]; ok && old != *o.Reg {
				t.Fatalf("vreg %d mapped to both f%d and f%d", v, old, *o.Reg)
			}
			phys[v] = *o.Reg
			i++
		}
	}
	// overlapping intervals must not share a register
	vregs := make([]int32, 0, len(intervals))
	for v := range intervals {
		vregs = append(vregs, v)
	}
	for i := 0; i < len(vregs); i++ {
		for j := i + 1; j < len(vregs); j++ {
			a, b := intervals[vregs[i]], intervals[vregs[j]]
			overlap := a[0] <= b[1] && b[0] <= a[1]
			if overlap && phys[vregs[i]] == phys[vregs[j]] {
				t.Fatalf("live ranges of v%d %v and v%d %v share f%d",
					vregs[i], a, vregs[j], b, phys[vregs[i]])
			}
		}
	}
}
