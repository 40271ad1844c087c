package interp

import (
	"testing"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/mat"
	"repro/internal/parser"
)

// host is a minimal Host for direct interpreter tests.
type host struct {
	ctx   *builtins.Context
	funcs map[string]*ast.Function
	in    *Interp
	glob  map[string]*mat.Value
}

func newHost(t *testing.T, src string) *host {
	t.Helper()
	h := &host{ctx: builtins.NewContext(), funcs: map[string]*ast.Function{}, glob: map[string]*mat.Value{}}
	h.in = New(h)
	if src != "" {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range file.Funcs {
			h.funcs[f.Name] = f
		}
	}
	return h
}

func (h *host) LookupFunction(name string) *ast.Function { return h.funcs[name] }
func (h *host) Context() *builtins.Context               { return h.ctx }
func (h *host) CallFunction(name string, args []*mat.Value, nout int) ([]*mat.Value, error) {
	fn := h.funcs[name]
	if fn == nil {
		return nil, mat.Errorf("no function %q", name)
	}
	return h.in.CallFunction(fn, args, nout, h.glob, nil)
}

func (h *host) run(t *testing.T, src string) *Env {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(h.glob)
	if err := h.in.ExecStmts(file.Stmts, env); err != nil {
		t.Fatal(err)
	}
	return env
}

func TestEnvBindings(t *testing.T) {
	glob := map[string]*mat.Value{}
	e := NewEnv(glob)
	if _, ok := e.Lookup("x"); ok {
		t.Fatal("empty env")
	}
	e.Bind("x", mat.Scalar(1))
	if v, ok := e.Lookup("x"); !ok || v.MustScalar() != 1 {
		t.Fatal("bind/lookup")
	}
	if names := e.Names(); len(names) != 1 || names[0] != "x" {
		t.Fatalf("names: %v", names)
	}
}

func TestGlobalIndirection(t *testing.T) {
	glob := map[string]*mat.Value{}
	e := NewEnv(glob)
	e.isGlob["g"] = true
	e.Bind("g", mat.Scalar(7))
	if glob["g"].MustScalar() != 7 {
		t.Fatal("global binding must write the global space")
	}
	e2 := NewEnv(glob)
	e2.isGlob["g"] = true
	if v, ok := e2.Lookup("g"); !ok || v.MustScalar() != 7 {
		t.Fatal("second frame must see the global")
	}
}

func TestDirectExecution(t *testing.T) {
	h := newHost(t, "")
	env := h.run(t, "a = 2; b = a^10;")
	v, _ := env.Lookup("b")
	if v.MustScalar() != 1024 {
		t.Fatalf("b = %v", v)
	}
}

func TestBreakOutsideLoopErrors(t *testing.T) {
	h := newHost(t, "")
	file, err := parser.Parse("break;")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(h.glob)
	if err := h.in.ExecStmts(file.Stmts, env); err == nil {
		t.Fatal("break outside a loop must error")
	}
}

func TestCallFunctionOutputs(t *testing.T) {
	h := newHost(t, `
function [a, b, c] = three(x)
  a = x;
  b = x * 2;
  c = x * 3;
end`)
	outs, err := h.CallFunction("three", []*mat.Value{mat.Scalar(5)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 3 || outs[2].MustScalar() != 15 {
		t.Fatalf("outs: %v", outs)
	}
	// fewer outputs requested
	outs, err = h.CallFunction("three", []*mat.Value{mat.Scalar(5)}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("nout=1 gave %d outputs", len(outs))
	}
	// too many inputs
	if _, err := h.CallFunction("three", []*mat.Value{mat.Scalar(1), mat.Scalar(2)}, 1); err == nil {
		t.Fatal("too many inputs must error")
	}
}

func TestErrorsCarryPosition(t *testing.T) {
	h := newHost(t, "")
	file, err := parser.Parse("x = 1;\ny = undefined_thing;")
	if err != nil {
		t.Fatal(err)
	}
	env := NewEnv(h.glob)
	execErr := h.in.ExecStmts(file.Stmts, env)
	if execErr == nil {
		t.Fatal("expected error")
	}
	if got := execErr.Error(); got == "" || got[0] != '2' {
		t.Errorf("error lacks line position: %q", got)
	}
}

func TestEvalBinOpShim(t *testing.T) {
	out, err := EvalBinOp(ast.OpMul, mat.Scalar(6), mat.Scalar(7))
	if err != nil || out.MustScalar() != 42 {
		t.Fatalf("EvalBinOp: %v %v", out, err)
	}
}
