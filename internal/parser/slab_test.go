package parser_test

import (
	"reflect"
	"runtime/debug"
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

// lists calls f with every list of the tree under v that holds
// something, as a reflect.Value of its slice.
func lists(v reflect.Value, f func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Pointer, reflect.Interface:
		if !v.IsNil() {
			lists(v.Elem(), f)
		}
	case reflect.Slice:
		if v.Len() > 0 {
			f(v)
		}
		for i := 0; i < v.Len(); i++ {
			lists(v.Index(i), f)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if v.Type().Field(i).IsExported() {
				lists(v.Field(i), f)
			}
		}
	}
}

// checkWindows fails when two lists of file overlap in memory, or a list
// has room past its length, and when an append to any call's arguments,
// any assignment's targets or any statement list changes what the tree
// prints.
func checkWindows(t *testing.T, file *ast.File) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	lists(reflect.ValueOf(file), func(l reflect.Value) {
		if l.Cap() != l.Len() {
			t.Errorf("a %s of length %d has capacity %d", l.Type(), l.Len(), l.Cap())
		}
		lo := l.Pointer()
		hi := lo + uintptr(l.Len())*l.Type().Elem().Size()
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

// TestParseSurvivesAShortCount: a parse whose slabs were counted for less
// than the tree still builds it whole and alike, the nodes and lists past
// the count allocated one by one, and its lists stay windows of their own.
func TestParseSurvivesAShortCount(t *testing.T) {
	for _, src := range corpus() {
		want, err := parser.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, frac := range []float64{0, 0.25, 0.5, 0.9} {
			got, err := parser.ParseScaled(src, frac)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("counted for %.2f of the tree, the parse differs:\n%s\nwant\n%s", frac, ast.Print(got), ast.Print(want))
			}
			checkWindows(t, got)
		}
	}
}

// TestParseAllocatesPerKind: the count bounds every Table 1 program, so
// its parse allocates one array per kind of node and of list it holds,
// the file and its function list, and nothing per node. The collector is
// off, since a collection would empty the parser pool.
func TestParseAllocatesPerKind(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, b := range bench.All() {
		src := b.Source(bench.Small)
		kinds := parser.Kinds(src)
		got := testing.AllocsPerRun(5, func() { parser.Parse(src) })
		if want := float64(kinds + 2); got > want {
			t.Errorf("%s: Parse allocated %.0f objects, want at most %.0f (%d kinds, the file and its functions)", b.Name, got, want, kinds)
		}
	}
}
