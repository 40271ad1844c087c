// Package interp is the baseline tree-walking interpreter: the stand-in
// for the stock MATLAB interpreter whose runtimes define ti in the
// paper's speedup measurements. It deliberately has the overheads the
// paper attributes to interpretation — a dynamic (map-based) symbol
// table consulted on every variable access, boxed values, per-operation
// kind dispatch, and subscript checks on every array access.
package interp

import (
	"fmt"
	"math"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cancel"
	"repro/internal/mat"
)

// Host is the engine-side interface the interpreter uses to resolve and
// invoke user functions. In the MaJIC configuration CallFunction defers
// to the code repository (which may run compiled code); in the pure
// interpreter configuration it interprets recursively.
type Host interface {
	// LookupFunction resolves a user-defined function by name (nil if
	// not found).
	LookupFunction(name string) *ast.Function
	// CallFunction invokes a user-defined function.
	CallFunction(name string, args []*mat.Value, nout int) ([]*mat.Value, error)
	// Context returns the shared builtin context (RNG, output).
	Context() *builtins.Context
}

// Interp evaluates MATLAB ASTs.
type Interp struct {
	host Host
	// cancel is the host's interruption flag (nil when the host has
	// none). It is polled at loop back-edges so a raised flag aborts
	// non-terminating programs within one iteration.
	cancel *cancel.Flag
}

// New returns an interpreter bound to host.
func New(host Host) *Interp {
	in := &Interp{host: host}
	if c, ok := host.(cancel.Checker); ok {
		in.cancel = c.CancelFlag()
	}
	return in
}

// checkCancel is the back-edge safepoint: it returns ErrInterrupted
// when the host's cancel flag is raised.
func (in *Interp) checkCancel() error {
	if in.cancel != nil && in.cancel.Raised() {
		return cancel.ErrInterrupted
	}
	return nil
}

// Env is a dynamic symbol table: one per workspace or function frame.
type Env struct {
	vars    map[string]*mat.Value
	globals map[string]*mat.Value // engine-wide global workspace
	isGlob  map[string]bool
}

// NewEnv returns an empty environment sharing the given global space.
func NewEnv(globals map[string]*mat.Value) *Env {
	return &Env{vars: make(map[string]*mat.Value), globals: globals, isGlob: make(map[string]bool)}
}

// Lookup returns the value bound to name.
func (e *Env) Lookup(name string) (*mat.Value, bool) {
	if e.isGlob[name] {
		v, ok := e.globals[name]
		return v, ok
	}
	v, ok := e.vars[name]
	return v, ok
}

// Bind sets name to v.
func (e *Env) Bind(name string, v *mat.Value) {
	if e.isGlob[name] {
		e.globals[name] = v
		return
	}
	e.vars[name] = v
}

// Names returns the bound variable names (for the REPL's whos).
func (e *Env) Names() []string {
	out := make([]string, 0, len(e.vars))
	for n := range e.vars {
		out = append(out, n)
	}
	return out
}

// control-flow signal for break/continue/return unwinding.
type ctl uint8

const (
	ctlNone ctl = iota
	ctlBreak
	ctlContinue
	ctlReturn
)

// posErr annotates a runtime error with a source position once.
func posErr(p ast.Pos, err error) error {
	if err == nil {
		return nil
	}
	if _, ok := err.(*positioned); ok {
		return err
	}
	return &positioned{pos: p, err: err}
}

type positioned struct {
	pos ast.Pos
	err error
}

func (e *positioned) Error() string { return fmt.Sprintf("%s: %s", e.pos, e.err.Error()) }
func (e *positioned) Unwrap() error { return e.err }

// ExecStmts executes a statement list in env.
func (in *Interp) ExecStmts(stmts []ast.Stmt, env *Env) error {
	c, err := in.execBlock(stmts, env)
	if err != nil {
		return err
	}
	if c == ctlBreak || c == ctlContinue {
		return errLooseBreak()
	}
	return nil
}

func (in *Interp) execBlock(stmts []ast.Stmt, env *Env) (ctl, error) {
	for _, s := range stmts {
		c, err := in.execStmt(s, env)
		if err != nil || c != ctlNone {
			return c, err
		}
	}
	return ctlNone, nil
}

func (in *Interp) execStmt(s ast.Stmt, env *Env) (ctl, error) {
	switch x := s.(type) {
	case *ast.ExprStmt:
		v, err := in.eval(x.X, env)
		if err != nil {
			return ctlNone, posErr(x.P, err)
		}
		if v != nil {
			// Expression statements bind ans, like MATLAB. The value may
			// alias a variable (bare `x;`), so mark it for copy-on-write.
			v.MarkShared()
			env.Bind("ans", v)
			// Echo unless suppressed; void-style builtin calls (disp,
			// fprintf, ...) return empties that MATLAB does not echo.
			_, isCall := x.X.(*ast.Call)
			if x.Display && !(isCall && v.IsEmpty()) {
				fmt.Fprintf(in.host.Context().Out, "ans =\n%s\n", v.String())
			}
		}
		return ctlNone, nil

	case *ast.Assign:
		return ctlNone, posErr(x.P, in.execAssign(x, env))

	case *ast.If:
		for i, cond := range x.Conds {
			v, err := in.eval(cond, env)
			if err != nil {
				return ctlNone, posErr(cond.Pos(), err)
			}
			if v.IsTrue() {
				return in.execBlock(x.Blocks[i], env)
			}
		}
		if x.Else != nil {
			return in.execBlock(x.Else, env)
		}
		return ctlNone, nil

	case *ast.While:
		for {
			if err := in.checkCancel(); err != nil {
				return ctlNone, posErr(x.Cond.Pos(), err)
			}
			v, err := in.eval(x.Cond, env)
			if err != nil {
				return ctlNone, posErr(x.Cond.Pos(), err)
			}
			if !v.IsTrue() {
				return ctlNone, nil
			}
			c, err := in.execBlock(x.Body, env)
			if err != nil {
				return ctlNone, err
			}
			if c == ctlBreak {
				return ctlNone, nil
			}
			if c == ctlReturn {
				return c, nil
			}
		}

	case *ast.For:
		return in.execFor(x, env)

	case *ast.Break:
		return ctlBreak, nil
	case *ast.Continue:
		return ctlContinue, nil
	case *ast.Return:
		return ctlReturn, nil

	case *ast.Global:
		for _, n := range x.Names {
			env.isGlob[n] = true
			if _, ok := env.globals[n]; !ok {
				env.globals[n] = mat.Empty()
			}
		}
		return ctlNone, nil

	case *ast.Clear:
		if len(x.Names) == 0 {
			for k := range env.vars {
				delete(env.vars, k)
			}
			for k := range env.isGlob {
				delete(env.isGlob, k)
			}
		} else {
			for _, n := range x.Names {
				delete(env.vars, n)
				delete(env.isGlob, n)
			}
		}
		return ctlNone, nil
	}
	return ctlNone, fmt.Errorf("unsupported statement %T", s)
}

func (in *Interp) execFor(x *ast.For, env *Env) (ctl, error) {
	// Fast path: a literal range iterates without materializing.
	if r, ok := x.Iter.(*ast.Range); ok {
		lo, err := in.evalScalar(r.Lo, env)
		if err != nil {
			return ctlNone, posErr(r.P, err)
		}
		step := 1.0
		if r.Step != nil {
			step, err = in.evalScalar(r.Step, env)
			if err != nil {
				return ctlNone, posErr(r.P, err)
			}
		}
		hi, err := in.evalScalar(r.Hi, env)
		if err != nil {
			return ctlNone, posErr(r.P, err)
		}
		if step == 0 || (step > 0 && lo > hi) || (step < 0 && lo < hi) {
			return ctlNone, nil
		}
		// Iterate v = lo + k*step for k = 0..n, using the same count and
		// value formula as mat.Colon so interpreted and compiled runs
		// agree bit for bit.
		n := int(math.Floor((hi-lo)/step + 1e-10))
		for k := 0; k <= n; k++ {
			if err := in.checkCancel(); err != nil {
				return ctlNone, posErr(x.P, err)
			}
			v := lo + float64(k)*step
			env.Bind(x.Var, mat.Scalar(v))
			c, err := in.execBlock(x.Body, env)
			if err != nil {
				return ctlNone, err
			}
			if c == ctlBreak {
				return ctlNone, nil
			}
			if c == ctlReturn {
				return c, nil
			}
		}
		return ctlNone, nil
	}
	iter, err := in.eval(x.Iter, env)
	if err != nil {
		return ctlNone, posErr(x.P, err)
	}
	// General form: iterate over columns.
	for c := 0; c < iter.Cols(); c++ {
		if err := in.checkCancel(); err != nil {
			return ctlNone, posErr(x.P, err)
		}
		col := mat.NewKind(iter.Kind(), iter.Rows(), 1)
		for r := 0; r < iter.Rows(); r++ {
			col.SetAt(r, 0, iter.At(r, c))
			if iter.Im() != nil {
				col.Im()[r] = iter.ImAt(r, c)
			}
		}
		env.Bind(x.Var, col)
		cl, err := in.execBlock(x.Body, env)
		if err != nil {
			return ctlNone, err
		}
		if cl == ctlBreak {
			return ctlNone, nil
		}
		if cl == ctlReturn {
			return cl, nil
		}
	}
	return ctlNone, nil
}

func (in *Interp) evalScalar(e ast.Expr, env *Env) (float64, error) {
	v, err := in.eval(e, env)
	if err != nil {
		return 0, err
	}
	return v.Scalar()
}

func (in *Interp) execAssign(x *ast.Assign, env *Env) error {
	if len(x.LHS) == 1 {
		switch lhs := x.LHS[0].(type) {
		case *ast.Ident:
			v, err := in.eval(x.RHS, env)
			if err != nil {
				return err
			}
			if v == nil {
				return fmt.Errorf("expression returned no value")
			}
			if _, aliases := x.RHS.(*ast.Ident); aliases {
				v.MarkShared()
			}
			env.Bind(lhs.Name, v)
			in.maybeDisplay(x, lhs.Name, v, env)
			return nil
		case *ast.Call:
			v, err := in.eval(x.RHS, env)
			if err != nil {
				return err
			}
			if err := in.indexedAssign(lhs, v, env); err != nil {
				return err
			}
			if cur, ok := env.Lookup(lhs.Name); ok {
				in.maybeDisplay(x, lhs.Name, cur, env)
			}
			return nil
		default:
			return fmt.Errorf("invalid assignment target")
		}
	}
	// Multi-assignment: RHS must be a function call.
	call, ok := x.RHS.(*ast.Call)
	if !ok {
		return fmt.Errorf("multi-assignment requires a function call on the right-hand side")
	}
	vals, err := in.evalCallN(call, env, len(x.LHS))
	if err != nil {
		return err
	}
	if len(vals) < len(x.LHS) {
		return fmt.Errorf("%s: not enough output arguments", call.Name)
	}
	for i, l := range x.LHS {
		switch lhs := l.(type) {
		case *ast.Ident:
			env.Bind(lhs.Name, vals[i])
			in.maybeDisplay(x, lhs.Name, vals[i], env)
		case *ast.Call:
			if err := in.indexedAssign(lhs, vals[i], env); err != nil {
				return err
			}
		default:
			return fmt.Errorf("invalid assignment target")
		}
	}
	return nil
}

func (in *Interp) maybeDisplay(x *ast.Assign, name string, v *mat.Value, env *Env) {
	if x.Display {
		fmt.Fprintf(in.host.Context().Out, "%s =\n%s\n", name, v.String())
	}
}

// indexedAssign performs A(subs...) = rhs, creating A when undefined.
func (in *Interp) indexedAssign(lhs *ast.Call, rhs *mat.Value, env *Env) error {
	base, ok := env.Lookup(lhs.Name)
	if !ok {
		base = mat.Empty()
	} else if base.IsShared() {
		// Copy-on-write: the array is reachable through another binding
		// (B = A, a function argument, ...), so mutate a private copy.
		base = base.Clone()
	}
	subs, err := in.evalSubscripts(lhs.Args, base, env)
	if err != nil {
		return err
	}
	switch len(subs) {
	case 1:
		if err := mat.Assign1(base, subs[0], rhs); err != nil {
			return err
		}
	case 2:
		if err := mat.Assign2(base, subs[0], subs[1], rhs); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unsupported number of subscripts (%d)", len(subs))
	}
	env.Bind(lhs.Name, base)
	return nil
}

// evalSubscripts evaluates an index argument list against base (for the
// 'end' value).
func (in *Interp) evalSubscripts(args []ast.Expr, base *mat.Value, env *Env) ([]mat.Subscript, error) {
	subs := make([]mat.Subscript, len(args))
	for i, a := range args {
		if _, isColon := a.(*ast.Colon); isColon {
			subs[i] = mat.Subscript{Colon: true}
			continue
		}
		v, err := in.evalWithEnd(a, base, i, len(args), env)
		if err != nil {
			return nil, err
		}
		s, err := mat.ResolveSubscript(v)
		if err != nil {
			return nil, err
		}
		// Remember the subscript's shape for result-orientation rules.
		s.ShapeRows, s.ShapeCols = v.Rows(), v.Cols()
		subs[i] = s
	}
	return subs, nil
}

// evalWithEnd evaluates an expression in which 'end' refers to base's
// extent along the given dimension.
func (in *Interp) evalWithEnd(e ast.Expr, base *mat.Value, dim, ndims int, env *Env) (*mat.Value, error) {
	endVal := func(d int) float64 {
		if ndims == 1 {
			return float64(base.Numel())
		}
		if d == 0 {
			return float64(base.Rows())
		}
		return float64(base.Cols())
	}
	return in.evalCtx(e, env, &evalCtx{endVal: endVal})
}

type evalCtx struct {
	endVal func(dim int) float64
}
