// Package cfg builds control-flow graphs from MaJIC ASTs. Both the
// disambiguator's reaching-definitions analysis and the type inference
// engine are iterative join-of-all-paths dataflow frameworks over this
// graph (paper §2.1, §2.3). A graph's blocks come from one chunk, and a
// block holds a window onto the body's own statement list, not a copy.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/ast"
)

// Block is a basic block: a run of simple statements, optionally
// terminated by a branch condition. ForHead marks loop-header blocks
// that define the loop variable from the iteration expression.
type Block struct {
	ID int
	// Stmts are Assign, ExprStmt, Global and Clear statements. They are a
	// window onto the body's own list, whose capacity is its length:
	// nothing writes through it, and an append copies.
	Stmts []ast.Stmt
	// Cond, when non-nil, is evaluated at block end; Succs[0] is the
	// true edge and Succs[1] the false edge. With Cond nil there is at
	// most one successor.
	Cond  ast.Expr
	Succs []*Block
	Preds []*Block
	// ForHead is set on the header block of a for loop: the block
	// defines ForHead.Var from ForHead.Iter on entry to each iteration.
	ForHead *ast.For
	// Most blocks have at most two edges each way; their lists start in
	// the block itself.
	succBuf, predBuf [2]*Block
}

// Graph is the CFG of one function body.
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
	// Vars numbers every name the body mentions (assigned, read, called,
	// declared global, cleared, or the implicit ans), so that a dataflow
	// pass keeps a block's environment in a slice indexed by VarID. A name
	// the body never mentions has no number: no statement can bind or read
	// it.
	Vars  []string
	varID map[string]int
	// Exprs counts the expression nodes of the body, which Build numbers
	// 1..Exprs (ast.Expr.ID): a per-expression table over the body has
	// Exprs+1 slots.
	Exprs int
}

// VarID returns the number of a name the body mentions.
func (g *Graph) VarID(name string) (int, bool) {
	id, ok := g.varID[name]
	return id, ok
}

func (g *Graph) number(body []ast.Stmt) {
	g.varID = map[string]int{}
	intern := func(name string) {
		if _, ok := g.varID[name]; !ok {
			g.varID[name] = len(g.Vars)
			g.Vars = append(g.Vars, name)
		}
	}
	intern("ans")
	ast.WalkStmts(body, func(n ast.Node) bool {
		if e, ok := n.(ast.Expr); ok {
			g.Exprs++
			e.SetID(g.Exprs)
		}
		switch x := n.(type) {
		case *ast.Ident:
			intern(x.Name)
		case *ast.Call:
			intern(x.Name)
		case *ast.For:
			intern(x.Var)
		case *ast.Global:
			for _, name := range x.Names {
				intern(name)
			}
		case *ast.Clear:
			for _, name := range x.Names {
				intern(name)
			}
		}
		return true
	})
}

type builder struct {
	g *Graph
	// free is the chunk newBlock takes blocks from.
	free []Block
	// loop stack for break/continue targets
	breaks    []*Block
	continues []*Block
}

// Build constructs the CFG of a statement list.
func Build(body []ast.Stmt) *Graph {
	b := lower(body)
	b.prune()
	b.g.number(body)
	return b.g
}

// lower makes the blocks of body and their edges.
func lower(body []ast.Stmt) *builder {
	n := 2 + blocks(body)
	b := &builder{g: &Graph{Blocks: make([]*Block, 0, n)}, free: make([]Block, n)}
	entry := b.newBlock()
	exit := b.newBlock()
	b.g.Entry, b.g.Exit = entry, exit
	last := b.stmts(body, entry)
	if last != nil {
		b.edge(last, exit)
	}
	return b
}

// blocks counts the blocks the builder makes for list, so that they come
// from one chunk.
func blocks(list []ast.Stmt) int {
	n := 0
	for i, s := range list {
		switch x := s.(type) {
		case *ast.If:
			n += 1 + 3*len(x.Conds) + blocks(x.Else)
			for _, blk := range x.Blocks {
				n += blocks(blk)
			}
		case *ast.While:
			n += 3 + blocks(x.Body)
		case *ast.For:
			n += 3 + blocks(x.Body)
		case *ast.Break, *ast.Continue, *ast.Return:
			if i+1 < len(list) {
				n++ // the unreachable code after it
			}
		}
	}
	return n
}

// newBlock takes a block from the chunk, or a new chunk should the count
// have fallen short.
func (b *builder) newBlock() *Block {
	if len(b.free) == 0 {
		b.free = make([]Block, 8)
	}
	blk := &b.free[0]
	b.free = b.free[1:]
	blk.ID = len(b.g.Blocks)
	blk.Succs, blk.Preds = blk.succBuf[:0], blk.predBuf[:0]
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// stmts lowers a statement list starting in cur; it returns the block
// control falls out of, or nil when the list always transfers away
// (return/break/continue). The simple statements of a block are a run of
// list, list[run:i], which the block takes as a window when the run ends.
func (b *builder) stmts(list []ast.Stmt, cur *Block) *Block {
	run := 0
	for i, s := range list {
		if cur == nil {
			// unreachable code after return/break: still lower it so the
			// disambiguator sees its symbols, but disconnected.
			cur = b.newBlock()
			run = i
		}
		switch s.(type) {
		case *ast.ExprStmt, *ast.Assign, *ast.Global, *ast.Clear:
			continue
		}
		hold(cur, list[run:i])
		run = i + 1
		switch x := s.(type) {
		case *ast.If:
			cur = b.ifStmt(x, cur)

		case *ast.While:
			head := b.newBlock()
			head.Cond = x.Cond
			b.edge(cur, head)
			body := b.newBlock()
			after := b.newBlock()
			b.edge(head, body)  // true
			b.edge(head, after) // false
			b.breaks = append(b.breaks, after)
			b.continues = append(b.continues, head)
			bodyEnd := b.stmts(x.Body, body)
			b.breaks = b.breaks[:len(b.breaks)-1]
			b.continues = b.continues[:len(b.continues)-1]
			if bodyEnd != nil {
				b.edge(bodyEnd, head)
			}
			cur = after

		case *ast.For:
			head := b.newBlock()
			head.ForHead = x
			b.edge(cur, head)
			body := b.newBlock()
			after := b.newBlock()
			b.edge(head, body)  // next iteration
			b.edge(head, after) // exhausted
			b.breaks = append(b.breaks, after)
			b.continues = append(b.continues, head)
			bodyEnd := b.stmts(x.Body, body)
			b.breaks = b.breaks[:len(b.breaks)-1]
			b.continues = b.continues[:len(b.continues)-1]
			if bodyEnd != nil {
				b.edge(bodyEnd, head)
			}
			cur = after

		case *ast.Break:
			if n := len(b.breaks); n > 0 {
				b.edge(cur, b.breaks[n-1])
			}
			cur = nil

		case *ast.Continue:
			if n := len(b.continues); n > 0 {
				b.edge(cur, b.continues[n-1])
			}
			cur = nil

		case *ast.Return:
			b.edge(cur, b.g.Exit)
			cur = nil
		}
	}
	if cur != nil {
		hold(cur, list[run:])
	}
	return cur
}

// hold gives blk the statements of run as a window onto the body's list.
func hold(blk *Block, run []ast.Stmt) {
	if len(run) > 0 {
		blk.Stmts = run[:len(run):len(run)]
	}
}

func (b *builder) ifStmt(x *ast.If, cur *Block) *Block {
	after := b.newBlock()
	for i, cond := range x.Conds {
		test := b.newBlock()
		test.Cond = cond
		b.edge(cur, test)
		thenBlk := b.newBlock()
		b.edge(test, thenBlk) // true
		thenEnd := b.stmts(x.Blocks[i], thenBlk)
		if thenEnd != nil {
			b.edge(thenEnd, after)
		}
		elseBlk := b.newBlock()
		b.edge(test, elseBlk) // false
		cur = elseBlk
	}
	if x.Else != nil {
		elseEnd := b.stmts(x.Else, cur)
		if elseEnd != nil {
			b.edge(elseEnd, after)
		}
	} else {
		b.edge(cur, after)
	}
	return after
}

// prune removes blocks that became unreachable from the entry, keeping
// IDs dense.
func (b *builder) prune() {
	reach := make([]bool, len(b.g.Blocks)) // by ID, dense until the renumbering below
	var visit func(*Block)
	visit = func(blk *Block) {
		if reach[blk.ID] {
			return
		}
		reach[blk.ID] = true
		for _, s := range blk.Succs {
			visit(s)
		}
	}
	visit(b.g.Entry)
	reach[b.g.Exit.ID] = true
	kept := b.g.Blocks[:0]
	for _, blk := range b.g.Blocks {
		if !reach[blk.ID] {
			continue
		}
		preds := blk.Preds[:0]
		for _, p := range blk.Preds {
			if reach[p.ID] {
				preds = append(preds, p)
			}
		}
		blk.Preds = preds
		kept = append(kept, blk)
	}
	for i, blk := range kept {
		blk.ID = i
	}
	b.g.Blocks = kept
}

// String renders the graph for debugging and golden tests.
func (g *Graph) String() string {
	var sb strings.Builder
	for _, blk := range g.Blocks {
		fmt.Fprintf(&sb, "B%d", blk.ID)
		if blk == g.Entry {
			sb.WriteString(" (entry)")
		}
		if blk == g.Exit {
			sb.WriteString(" (exit)")
		}
		if blk.ForHead != nil {
			fmt.Fprintf(&sb, " for %s", blk.ForHead.Var)
		}
		if blk.Cond != nil {
			fmt.Fprintf(&sb, " cond %s", ast.ExprString(blk.Cond))
		}
		sb.WriteString(":")
		for _, s := range blk.Succs {
			fmt.Fprintf(&sb, " ->B%d", s.ID)
		}
		sb.WriteString("\n")
		for _, s := range blk.Stmts {
			sb.WriteString("  " + strings.TrimRight(ast.Print(s), "\n") + "\n")
		}
	}
	return sb.String()
}
