package cfg

import (
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/parser"
)

func build(t *testing.T, src string) *Graph {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(file.Funcs) > 0 {
		return Build(file.Funcs[0].Body)
	}
	return Build(file.Stmts)
}

// checkInvariants verifies edge symmetry and dense IDs.
func checkInvariants(t *testing.T, g *Graph) {
	t.Helper()
	for i, b := range g.Blocks {
		if b.ID != i {
			t.Fatalf("block %d has ID %d", i, b.ID)
		}
		for _, s := range b.Succs {
			found := false
			for _, p := range s.Preds {
				if p == b {
					found = true
				}
			}
			if !found {
				t.Fatalf("edge B%d→B%d lacks pred backlink", b.ID, s.ID)
			}
		}
		if b.Cond != nil && len(b.Succs) != 2 {
			t.Fatalf("cond block B%d has %d successors", b.ID, len(b.Succs))
		}
		if b.ForHead != nil && len(b.Succs) != 2 {
			t.Fatalf("for-head B%d has %d successors", b.ID, len(b.Succs))
		}
	}
}

func TestStraightLine(t *testing.T) {
	g := build(t, "x = 1;\ny = 2;\nz = x + y;")
	checkInvariants(t, g)
	// entry holds all three statements, flows to exit
	if len(g.Entry.Stmts) != 3 {
		t.Fatalf("entry has %d stmts", len(g.Entry.Stmts))
	}
	if len(g.Entry.Succs) != 1 || g.Entry.Succs[0] != g.Exit {
		t.Fatal("entry must flow to exit")
	}
}

func TestIfElseShape(t *testing.T) {
	g := build(t, `
if c > 0
  x = 1;
else
  x = 2;
end
y = x;`)
	checkInvariants(t, g)
	var cond *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			cond = b
		}
	}
	if cond == nil {
		t.Fatal("no condition block")
	}
	// both branches reach the block holding y = x
	if len(cond.Succs) != 2 {
		t.Fatal("if needs two successors")
	}
}

func TestWhileBackedge(t *testing.T) {
	g := build(t, `
k = 0;
while k < 5
  k = k + 1;
end
r = k;`)
	checkInvariants(t, g)
	// some block must have a successor with a smaller or equal ID
	// reachable again (the backedge to the condition)
	var head *Block
	for _, b := range g.Blocks {
		if b.Cond != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no loop head")
	}
	backedge := false
	for _, p := range head.Preds {
		// the body block is a pred of the head besides the entry side
		for _, s := range p.Succs {
			if s == head && p != g.Entry {
				backedge = true
			}
		}
	}
	if !backedge {
		t.Fatal("while loop lacks a backedge")
	}
}

func TestBreakContinueTargets(t *testing.T) {
	g := build(t, `
s = 0;
for i = 1:10
  if i == 3
    continue;
  end
  if i == 7
    break;
  end
  s = s + i;
end
t = s;`)
	checkInvariants(t, g)
	var head *Block
	for _, b := range g.Blocks {
		if b.ForHead != nil {
			head = b
		}
	}
	if head == nil {
		t.Fatal("no for head")
	}
	// continue produces an extra pred on the head; break produces an
	// extra pred on the after-block (head's false successor)
	after := head.Succs[1]
	if len(after.Preds) < 2 {
		t.Errorf("break edge missing: after-block has %d preds", len(after.Preds))
	}
	if len(head.Preds) < 3 {
		t.Errorf("continue edge missing: head has %d preds", len(head.Preds))
	}
}

func TestReturnEdges(t *testing.T) {
	g := build(t, `
function y = f(x)
  y = 0;
  if x > 0
    y = 1;
    return;
  end
  y = 2;
end`)
	checkInvariants(t, g)
	// the return block must flow to exit
	if len(g.Exit.Preds) < 2 {
		t.Errorf("exit has %d preds; return edge missing", len(g.Exit.Preds))
	}
}

func TestUnreachableAfterReturnPruned(t *testing.T) {
	g := build(t, `
function y = f(x)
  y = 1;
  return;
end`)
	checkInvariants(t, g)
	for _, b := range g.Blocks {
		if b != g.Entry && b != g.Exit && len(b.Preds) == 0 && len(b.Stmts) > 0 {
			t.Errorf("unreachable populated block survived pruning: %v", b.ID)
		}
	}
}

func TestStringRendering(t *testing.T) {
	g := build(t, "for i = 1:3\n  s = i;\nend")
	out := g.String()
	if !strings.Contains(out, "for i") || !strings.Contains(out, "(entry)") {
		t.Errorf("render:\n%s", out)
	}
}

// TestBlockStmtsAreWindows: a block's statements are a window onto the
// list that holds them in the body, with no spare capacity, so an append
// to one copies and never writes the body; and Build counts the blocks it
// makes, so that they come from one chunk.
func TestBlockStmtsAreWindows(t *testing.T) {
	file, err := parser.Parse(`
function y = f(x)
  a = 1;
  b = 2;
  if x > 0
    c = 3;
    d = 4;
  elseif x < -1
    c = 5;
  else
    c = 6;
  end
  e = 7;
  for i = 1:3
    a = a + i;
    if i == 2, break; end
    b = b + 1;
  end
  while a < 10
    a = a + 1;
    continue;
    b = 0;
  end
  switch b
  case 1
    y = 1;
  otherwise
    y = 2;
  end
  y = y + a;
  return;
  y = 0;
end`)
	if err != nil {
		t.Fatal(err)
	}
	body := file.Funcs[0].Body
	var lists [][]ast.Stmt
	var collect func([]ast.Stmt)
	collect = func(l []ast.Stmt) {
		lists = append(lists, l)
		for _, s := range l {
			switch x := s.(type) {
			case *ast.If:
				for _, b := range x.Blocks {
					collect(b)
				}
				collect(x.Else)
			case *ast.For:
				collect(x.Body)
			case *ast.While:
				collect(x.Body)
			}
		}
	}
	collect(body)
	before := make([][]ast.Stmt, len(lists))
	for i, l := range lists {
		before[i] = append([]ast.Stmt(nil), l...)
	}
	within := func(w []ast.Stmt) bool {
		for _, l := range lists {
			for i := range l {
				if &l[i] == &w[0] && i+len(w) <= len(l) {
					return true
				}
			}
		}
		return false
	}
	g := Build(body)
	checkInvariants(t, g)
	held := 0
	for _, blk := range g.Blocks {
		if len(blk.Stmts) == 0 {
			continue
		}
		held += len(blk.Stmts)
		if cap(blk.Stmts) != len(blk.Stmts) || !within(blk.Stmts) {
			t.Errorf("B%d's statements are not a window onto the body (len %d, cap %d)", blk.ID, len(blk.Stmts), cap(blk.Stmts))
		}
		_ = append(blk.Stmts, &ast.Break{})
	}
	if held != 14 { // the statements after continue and return are pruned
		t.Fatalf("the blocks hold %d statements, want 14", held)
	}
	for i, l := range lists {
		for j := range l {
			if l[j] != before[i][j] {
				t.Fatalf("an append to a block's statements wrote the body's list %d at %d", i, j)
			}
		}
	}
	if made, counted := len(lower(body).g.Blocks), 2+blocks(body); made != counted {
		t.Errorf("Build made %d blocks, counted %d", made, counted)
	}
}

var _ = ast.Print // keep the ast import for debugging helpers
