// Package disambig implements MaJIC's first compiler pass (paper §2.1):
// classifying each symbol occurrence as a variable, a builtin primitive,
// a user function, or ambiguous, using a variation of reaching-definitions
// analysis over the CFG — "a symbol that has a reaching definition as a
// variable on all paths leading to it must be a variable".
//
// Cost contract: a block's environment is a byte per variable the graph
// numbers (cfg.Graph.VarID), a row of one slab allocated per analysis;
// copying, joining and comparing environments are loops over bytes, and
// the worklist is a ring the size of the graph. What the pass allocates
// beyond the two tables it returns does not grow with the function.
package disambig

import (
	"bytes"

	"repro/internal/ast"
	"repro/internal/builtins"
	"repro/internal/cfg"
)

// Meaning classifies one symbol occurrence.
type Meaning uint8

const (
	Variable Meaning = iota
	Builtin
	UserFunc
	// Ambiguous marks occurrences that are a variable on some but not
	// all paths (Figure 2 of the paper). MaJIC defers these to runtime;
	// our pipeline refuses to compile functions containing them and the
	// engine falls back to interpretation.
	Ambiguous
	// Undefined is a name that is neither assigned nor known as a
	// builtin or user function.
	Undefined
)

func (m Meaning) String() string {
	return [...]string{"variable", "builtin", "user", "ambiguous", "undefined"}[m]
}

// Table is the static symbol table the pass produces.
type Table struct {
	// Uses classifies each Ident and Call node (by pointer).
	Uses map[ast.Node]Meaning
	// Vars is the set of names that are variables anywhere in the
	// function (parameters, outputs, assigned names, loop variables).
	Vars map[string]bool
	// HasAmbiguous reports whether any occurrence was ambiguous or
	// undefined, which blocks compilation.
	HasAmbiguous bool
}

// Resolver answers whether a name denotes a known user function.
type Resolver interface {
	IsUserFunction(name string) bool
}

// ResolverFunc adapts a function to Resolver.
type ResolverFunc func(string) bool

// IsUserFunction implements Resolver.
func (f ResolverFunc) IsUserFunction(name string) bool { return f(name) }

// state bits per name
const (
	bitMay  = 1 // assigned on some path
	bitMust = 2 // assigned on all paths
)

// env holds the state bits of every variable the graph numbers
// (cfg.Graph.VarID); zero means no path assigns the name.
type env struct {
	g    *cfg.Graph
	bits []uint8
}

func (e env) get(name string) uint8 {
	if id, ok := e.g.VarID(name); ok {
		return e.bits[id]
	}
	return 0
}

func (e env) set(name string, bits uint8) {
	if id, ok := e.g.VarID(name); ok {
		e.bits[id] = bits
	}
}

// joinInto merges src into dst with join-of-all-paths semantics:
// may = union, must = intersection (a name assigned on one side only
// keeps may and loses must).
func joinInto(dst, src env) {
	for i, s := range src.bits {
		d := dst.bits[i]
		dst.bits[i] = ((d | s) & bitMay) | (d & s & bitMust)
	}
}

// Analyze runs the pass over a function. params and outs seed the
// variable set (parameters are definitely assigned at entry).
func Analyze(g *cfg.Graph, params []string, res Resolver) *Table {
	t := &Table{Uses: make(map[ast.Node]Meaning), Vars: make(map[string]bool)}
	for _, p := range params {
		t.Vars[p] = true
	}

	// Every environment of the analysis is a row of one slab: an OUT per
	// block, the entry state and the IN being worked on.
	nv, nb := len(g.Vars), len(g.Blocks)
	slab := make([]uint8, (nb+2)*nv)
	row := func(i int) env { return env{g, slab[i*nv : (i+1)*nv : (i+1)*nv]} }
	entryEnv, in := row(nb), row(nb+1)
	for _, p := range params {
		entryEnv.set(p, bitMay|bitMust)
	}
	visited := make([]bool, nb)

	// Fixpoint over block environments: IN is recomputed as the
	// join-of-all-paths merge of the predecessors' OUTs.
	computeIn := func(blk *cfg.Block) env {
		first := true
		if blk == g.Entry {
			copy(in.bits, entryEnv.bits)
			first = false
		}
		for _, p := range blk.Preds {
			switch {
			case !visited[p.ID]:
			case first:
				copy(in.bits, row(p.ID).bits)
				first = false
			default:
				joinInto(in, row(p.ID))
			}
		}
		if first {
			clear(in.bits)
		}
		return in
	}

	// The queue holds each block at most once, so a ring of nb suffices.
	queue := make([]*cfg.Block, nb)
	inQueue := make([]bool, nb)
	head, n := 0, 0
	push := func(blk *cfg.Block) {
		if !inQueue[blk.ID] {
			queue[(head+n)%nb], inQueue[blk.ID] = blk, true
			n++
		}
	}
	push(g.Entry)
	for n > 0 {
		blk := queue[head]
		head, n = (head+1)%nb, n-1
		inQueue[blk.ID] = false
		newOut := transfer(blk, computeIn(blk), t, false, res)
		out := row(blk.ID)
		if visited[blk.ID] && bytes.Equal(out.bits, newOut.bits) {
			continue
		}
		visited[blk.ID] = true
		copy(out.bits, newOut.bits)
		for _, s := range blk.Succs {
			push(s)
		}
	}

	// Classification pass with the converged environments.
	for _, blk := range g.Blocks {
		transfer(blk, computeIn(blk), t, true, res)
	}
	return t
}

// transfer walks a block, updating e with definitions; when classify is
// set it also records the meaning of every use.
func transfer(blk *cfg.Block, e env, t *Table, classify bool, res Resolver) env {
	if blk.ForHead != nil {
		if classify {
			classifyExpr(blk.ForHead.Iter, e, t, res)
		}
		define(e, blk.ForHead.Var, t)
	}
	for _, s := range blk.Stmts {
		switch x := s.(type) {
		case *ast.ExprStmt:
			if classify {
				classifyExpr(x.X, e, t, res)
			}
			define(e, "ans", t)
		case *ast.Assign:
			if classify {
				classifyExpr(x.RHS, e, t, res)
			}
			for _, l := range x.LHS {
				switch lhs := l.(type) {
				case *ast.Ident:
					define(e, lhs.Name, t)
					if classify {
						t.Uses[lhs] = Variable
					}
				case *ast.Call:
					// Indexed assignment: subscripts are uses; the base
					// becomes (or stays) a variable.
					if classify {
						for _, a := range lhs.Args {
							classifyExpr(a, e, t, res)
						}
						t.Uses[lhs] = Variable
						lhs.Kind = ast.CallIndex
					}
					define(e, lhs.Name, t)
				}
			}
		case *ast.Global:
			for _, n := range x.Names {
				define(e, n, t)
			}
		case *ast.Clear:
			if len(x.Names) == 0 {
				clear(e.bits)
			} else {
				for _, n := range x.Names {
					e.set(n, 0)
				}
			}
		}
	}
	if blk.Cond != nil && classify {
		classifyExpr(blk.Cond, e, t, res)
	}
	return e
}

func define(e env, name string, t *Table) {
	e.set(name, bitMay|bitMust)
	t.Vars[name] = true
}

func classifyExpr(expr ast.Expr, e env, t *Table, res Resolver) {
	ast.Walk(expr, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Ident:
			t.Uses[x] = classifyName(x.Name, e, t, res)
			if t.Uses[x] == Ambiguous || t.Uses[x] == Undefined {
				t.HasAmbiguous = true
			}
		case *ast.Call:
			m := classifyName(x.Name, e, t, res)
			t.Uses[x] = m
			switch m {
			case Variable:
				x.Kind = ast.CallIndex
			case Builtin:
				x.Kind = ast.CallBuiltin
			case UserFunc:
				x.Kind = ast.CallUser
			default:
				x.Kind = ast.CallAmbiguous
				t.HasAmbiguous = true
			}
		}
		return true
	})
}

func classifyName(name string, e env, t *Table, res Resolver) Meaning {
	bits := e.get(name)
	switch {
	case bits&bitMust != 0:
		return Variable
	case bits&bitMay != 0:
		// Variable on some paths only: ambiguous (paper Figure 2).
		return Ambiguous
	}
	if builtins.Lookup(name) != nil {
		return Builtin
	}
	if res != nil && res.IsUserFunction(name) {
		return UserFunc
	}
	return Undefined
}
