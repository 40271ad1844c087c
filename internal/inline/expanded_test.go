package inline_test

import (
	"flag"
	"fmt"
	"os"
	"regexp"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/inline"
	"repro/internal/parser"
)

var update = flag.Bool("update", false, "rewrite testdata/expanded.golden from what this build's inliner expands")

const expandedGolden = "testdata/expanded.golden"

type resolver map[string]*ast.Function

func (r resolver) LookupFunction(name string) *ast.Function { return r[name] }

// wrapped renames src's entry function fn to <fn>_body and defines fn
// anew as r = <fn>_body(args) + 1: the shape of a redefinition, whose
// expansion splices the whole program.
func wrapped(src, fn string) string {
	header := regexp.MustCompile(`(?m)^\s*function\s+\w+\s*=\s*` + regexp.QuoteMeta(fn) + `\s*(?:\(([^)]*)\))?`)
	params := ""
	if m := header.FindStringSubmatch(src); m != nil {
		params = strings.TrimSpace(m[1])
	}
	renamed := regexp.MustCompile(`\b`+regexp.QuoteMeta(fn)+`\b`).ReplaceAllString(src, fn+"_body")
	return fmt.Sprintf("%s\nfunction r = %s(%s)\n  r = %s_body(%s) + 1;\nend\n", renamed, fn, params, fn, params)
}

// expansions renders ExpandDeps of every function of src: what it
// spliced, the expanded body, and the verdict on every name in it.
func expansions(t *testing.T, b *strings.Builder, title, src string) {
	t.Helper()
	file, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("%s: %v", title, err)
	}
	res := resolver{}
	for _, f := range file.Funcs {
		res[f.Name] = f
	}
	for _, f := range file.Funcs {
		out, deps, _, _ := inline.ExpandDeps(f, res)
		fmt.Fprintf(b, "== %s: %s, spliced", title, f.Name)
		for _, d := range deps {
			fmt.Fprintf(b, " %s", d.Name)
		}
		b.WriteString("\n")
		b.WriteString(ast.Print(out))
		b.WriteString("verdicts ")
		ast.Walk(out, func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.Ident:
				b.WriteString(x.Kind.String()[:1])
			case *ast.Call:
				b.WriteString(strings.ToUpper(x.Kind.String()[:1]))
			}
			return true
		})
		b.WriteString("\n")
	}
}

// TestExpansionUnchanged pins what the inliner makes of every Table 1
// program, and of a wrapper around each, node for node: the spliced
// statements, their inl<N>_<v> names and every name's verdict. A change
// meant to alter an expansion regenerates the file with -update.
func TestExpansionUnchanged(t *testing.T) {
	var b strings.Builder
	for _, p := range bench.All() {
		src := p.Source(bench.Small)
		expansions(t, &b, p.Name, src)
		expansions(t, &b, p.Name+" wrapped", wrapped(src, p.Fn))
	}
	got := b.String()
	if *update {
		if err := os.WriteFile(expandedGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(expandedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("%s differs at line %d:\n got: %s\nwant: %s\n(regenerate with -update if the change is meant)", expandedGolden, i+1, g, w)
		}
	}
}

// TestSplicedListsShareNoBacking is TestParsedListsShareNoBacking's
// counterpart for the inliner, whose splices share slabs: every list of an
// expansion, spliced or not, is a window of its own, with no room to grow
// into a neighbour, so that an append to one splice's arguments, targets
// or bodies leaves every other splice's lists alone.
func TestSplicedListsShareNoBacking(t *testing.T) {
	for _, p := range bench.All() {
		src := p.Source(bench.Small)
		for _, src := range []string{src, wrapped(src, p.Fn)} {
			file, err := parser.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			res := resolver{}
			for _, f := range file.Funcs {
				res[f.Name] = f
			}
			for _, f := range file.Funcs {
				if out, deps, _, _ := inline.ExpandDeps(f, res); len(deps) > 0 {
					checkWindows(t, p.Name+": "+f.Name, out)
				}
			}
		}
	}
}

// span is the memory a list's elements occupy.
type span struct{ lo, hi uintptr }

func spanOf[T any](t *testing.T, what string, l []T, spans *[]span) {
	if cap(l) != len(l) {
		t.Errorf("%s: a %T of length %d has capacity %d", what, l, len(l), cap(l))
	}
	if len(l) == 0 {
		return
	}
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(l)))
	hi := lo + uintptr(len(l))*unsafe.Sizeof(l[0])
	for _, s := range *spans {
		if lo < s.hi && s.lo < hi {
			t.Errorf("%s: a %T at %#x–%#x overlaps another list at %#x–%#x", what, l, lo, hi, s.lo, s.hi)
		}
	}
	*spans = append(*spans, span{lo, hi})
}

// checkWindows fails when two lists of fn overlap in memory, or a list
// has room past its length, and when an append to any call's arguments,
// any assignment's targets or any statement list changes what fn prints.
func checkWindows(t *testing.T, what string, fn *ast.Function) {
	t.Helper()
	var spans []span
	spanOf(t, what, fn.Body, &spans)
	ast.Walk(fn, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			spanOf(t, what, x.Args, &spans)
		case *ast.Assign:
			spanOf(t, what, x.LHS, &spans)
		case *ast.Matrix:
			spanOf(t, what, x.Rows, &spans)
			for _, row := range x.Rows {
				spanOf(t, what, row, &spans)
			}
		case *ast.If:
			spanOf(t, what, x.Conds, &spans)
			spanOf(t, what, x.Blocks, &spans)
			for _, b := range x.Blocks {
				spanOf(t, what, b, &spans)
			}
			spanOf(t, what, x.Else, &spans)
		case *ast.While:
			spanOf(t, what, x.Body, &spans)
		case *ast.For:
			spanOf(t, what, x.Body, &spans)
		}
		return true
	})
	want := ast.Print(fn)
	zz := &ast.Ident{Name: "zz"}
	ast.Walk(fn, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.Call:
			_ = append(x.Args, zz)
		case *ast.Assign:
			_ = append(x.LHS, zz)
		case *ast.If:
			for _, b := range x.Blocks {
				_ = append(b, &ast.Break{})
			}
			_ = append(x.Else, &ast.Break{})
		case *ast.For:
			_ = append(x.Body, &ast.Break{})
		case *ast.While:
			_ = append(x.Body, &ast.Break{})
		case *ast.Function:
			_ = append(x.Body, &ast.Break{})
		}
		return true
	})
	if got := ast.Print(fn); got != want {
		t.Errorf("%s: an append to a spliced list wrote its neighbour:\n%s", what, got)
	}
}
