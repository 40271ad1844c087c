package parser_test

import (
	"reflect"
	"runtime/debug"
	"sync"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/parser"
)

// everyKind holds every kind of node and of list the parser makes.
const everyKind = `
function [y, z] = h(a, b)
  global g1 g2
  v = [1 2; a -b];
  [m, k] = max(v(:, end));
  if a > 0 && b < 1
    y = g(a, b) + g(b, a)';
  elseif a == 0
    y = -a.';
  else
    y = 'str';
  end
  while k < 3
    k = k + 1;
    if k == 2, break; end
    continue;
  end
  for i = 1:2:9
    z(i) = ~i;
  end
  switch m
  case 1
    z = 2i;
  otherwise
    return;
  end
  disp(v)
  clear v
end
x = h(1, 2)
`

// corpus is everyKind and every Table 1 program.
func corpus() []string {
	srcs := []string{everyKind}
	for _, b := range bench.All() {
		srcs = append(srcs, b.Source(bench.Small))
	}
	return srcs
}

// refs calls f with every node of the tree under v, as a reflect.Value
// of its pointer, and every list that holds something, as one of its
// slice.
func refs(v reflect.Value, f func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Interface:
		if !v.IsNil() {
			refs(v.Elem(), f)
		}
	case reflect.Pointer:
		if !v.IsNil() {
			f(v)
			refs(v.Elem(), f)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			f(v)
		}
		for i := 0; i < v.Len(); i++ {
			refs(v.Index(i), f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				refs(v.Field(i), f)
			}
		}
	}
}

// extent is the memory a node or a list's elements take.
func extent(v reflect.Value) (lo, hi uintptr) {
	lo = v.Pointer()
	if v.Kind() == reflect.Pointer {
		return lo, lo + v.Type().Elem().Size()
	}
	return lo, lo + uintptr(v.Len())*v.Type().Elem().Size()
}

// checkWindows fails when two lists of file overlap in memory, or a list
// has room past its length, and when an append to any call's arguments,
// any assignment's targets or any statement list changes what the tree
// prints.
func checkWindows(t *testing.T, file *ast.File) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	refs(reflect.ValueOf(file), func(l reflect.Value) {
		if l.Kind() != reflect.Slice {
			return
		}
		if l.Cap() != l.Len() {
			t.Errorf("a %s of length %d has capacity %d", l.Type(), l.Len(), l.Cap())
		}
		lo, hi := extent(l)
		for _, s := range spans {
			if lo < s.hi && s.lo < hi {
				t.Errorf("a %s at %#x–%#x overlaps another list at %#x–%#x", l.Type(), lo, hi, s.lo, s.hi)
			}
		}
		spans = append(spans, span{lo, hi})
	})
	want := ast.Print(file)
	zz := &ast.Ident{Name: "zz"}
	ast.Walk(file, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			_ = append(x.Args, zz)
		case *ast.Assign:
			_ = append(x.LHS, zz)
		case *ast.For:
			_ = append(x.Body, &ast.Break{})
		case *ast.While:
			_ = append(x.Body, &ast.Break{})
		case *ast.Function:
			_ = append(x.Body, &ast.Break{})
		}
		return true
	})
	if got := ast.Print(file); got != want {
		t.Errorf("an append to a parsed list wrote its neighbour:\n%s", got)
	}
}

// TestParsedListsShareNoBacking is TestCloneIsDeep's parse-side
// counterpart: every list the parser hands out is a window of its own in
// its kind's backing, with no room to grow into a neighbour.
func TestParsedListsShareNoBacking(t *testing.T) {
	for _, src := range corpus() {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		checkWindows(t, file)
	}
}

// TestParsedTreeOutlivesTheNextParse: the parser builds every tree in
// scratch it keeps between parses, and Parse returns a copy. Every corpus
// source is parsed in sequence, then again from three goroutines at once;
// after every later parse, each earlier tree must still equal a fresh
// parse of its source, copied off when it was made. No node or list of
// any tree may lie in a kept parser or the arrays it keeps. The collector
// is off, so that the pool still holds the parsers at the end.
func TestParsedTreeOutlivesTheNextParse(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	// outside fails when a node or list of a tree lies in a kept parser
	// or an array it keeps.
	outside := func(trees ...*ast.File) {
		t.Helper()
		type scratch struct{ lo, hi uintptr }
		var spans []scratch
		parser.ScratchSpans(8, func(lo, hi uintptr) { spans = append(spans, scratch{lo, hi}) })
		if len(spans) == 0 {
			t.Fatal("no kept parser to look at")
		}
		for _, tree := range trees {
			refs(reflect.ValueOf(tree), func(v reflect.Value) {
				lo, hi := extent(v)
				for _, s := range spans {
					if lo < s.hi && s.lo < hi {
						t.Fatalf("a %s at %#x–%#x lies in a parser's scratch at %#x–%#x", v.Type(), lo, hi, s.lo, s.hi)
					}
				}
			})
		}
	}
	srcs := corpus()
	want := make([]*ast.File, len(srcs))
	for i, src := range srcs {
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if len(file.Stmts)+len(file.Funcs) == 0 {
			t.Fatalf("source %d parsed to an empty file", i)
		}
		outside(file)
		want[i] = ast.CloneFile(file)
	}
	// run parses every source, starting at the first'th, and after each
	// parse holds every tree it made so far to want.
	run := func(first int) []*ast.File {
		var trees []*ast.File
		var of []int
		for k := range srcs {
			i := (first + k) % len(srcs)
			file, err := parser.Parse(srcs[i])
			if err != nil {
				t.Error(err)
				return trees
			}
			trees, of = append(trees, file), append(of, i)
			for j, tree := range trees {
				if !reflect.DeepEqual(tree, want[of[j]]) {
					t.Errorf("after parsing source %d, the tree of source %d differs:\n%s", i, of[j], ast.Print(tree))
					return trees
				}
			}
		}
		return trees
	}
	trees := run(0)
	var wg sync.WaitGroup
	out := make([][]*ast.File, 3)
	for g := range out {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[g] = run(g * 5)
		}()
	}
	wg.Wait()
	for _, more := range out {
		trees = append(trees, more...)
	}
	outside(trees...)
}

// TestParseAllocatesPerKind: a parse builds in the parser's scratch and
// copies the tree, so a warm parse of a Table 1 program allocates one
// array per kind of node and of list the tree holds, the file and its
// function list, and nothing per node. The collector is off, since a
// collection would empty the parser pool.
func TestParseAllocatesPerKind(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, b := range bench.All() {
		src := b.Source(bench.Small)
		file, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[reflect.Type]bool{}
		refs(reflect.ValueOf(file), func(v reflect.Value) {
			seen[v.Type()] = true
		})
		// The file and its function list are counted apart.
		delete(seen, reflect.TypeOf(file))
		delete(seen, reflect.TypeOf(file.Funcs))
		kinds := len(seen)
		got := testing.AllocsPerRun(5, func() { parser.Parse(src) })
		if want := float64(kinds + 2); got > want {
			t.Errorf("%s: Parse allocated %.0f objects, want at most %.0f (%d kinds, the file and its functions)", b.Name, got, want, kinds)
		}
	}
}
