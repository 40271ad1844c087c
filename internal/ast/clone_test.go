package ast

import "testing"

// TestCloneSurvivesAShortCount: a clone whose slabs were counted for less
// than the tree still copies it whole, the nodes past the count taken
// from whole arrays the slabs grow by, and an append to any list it made
// writes nothing else.
func TestCloneSurvivesAShortCount(t *testing.T) {
	id := func(n string) *Ident { return &Ident{Name: n} }
	num := func(v float64) *NumberLit { return &NumberLit{Value: v} }
	assign := func(l, r Expr) *Assign { return &Assign{LHS: []Expr{l}, RHS: r} }
	body := []Stmt{
		assign(id("y"), &Binary{Op: OpAdd, L: &Call{Name: "f", Args: []Expr{id("a"), id("b")}},
			R: &Matrix{Rows: [][]Expr{{num(1), num(2)}, {id("a"), id("b")}}}}),
		&If{Conds: []Expr{id("a")}, Blocks: [][]Stmt{{assign(id("z"), num(1))}}, Else: []Stmt{assign(id("z"), num(2))}},
		&For{Var: "i", Iter: &Range{Lo: num(1), Hi: num(3)}, Body: []Stmt{
			assign(&Call{Name: "w", Args: []Expr{id("i")}}, &Unary{Op: OpNeg, X: id("i")}),
			&Global{Names: []string{"g"}},
		}},
	}
	want := ""
	for _, s := range body {
		want += Print(s)
	}
	for k := 0; k <= len(body); k++ {
		var c cloner
		c.countStmts(body[:k])
		(*Slabs)(&c).Reset()
		out := c.stmtList(body)
		got := ""
		for _, s := range out {
			got += Print(s)
		}
		if got != want {
			t.Fatalf("counted %d of %d statements: clone prints\n%s\nwant\n%s", k, len(body), got, want)
		}
		WalkStmts(out, func(n Node) bool {
			switch x := n.(type) {
			case *Call:
				_ = append(x.Args, id("zz"))
			case *Assign:
				_ = append(x.LHS, id("zz"))
			case *Global:
				_ = append(x.Names, "zz")
			}
			return true
		})
		got = ""
		for _, s := range out {
			got += Print(s)
		}
		if got != want {
			t.Fatalf("counted %d of %d statements: an append wrote a neighbour:\n%s", k, len(body), got)
		}
	}
}
