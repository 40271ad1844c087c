package core_test

import (
	"fmt"
	goast "go/ast"
	goparser "go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/inline"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/types"
	"repro/internal/vm/vmtest"
)

const dynamicGolden = "testdata/dynamic_instrs.golden"

// ledgerMedium names the Table 1 programs the ledger (benchmark/programs.go)
// runs at medium; the rest run at small.
var ledgerMedium = map[string]bool{
	"crnich": true, "galrkn": true, "adapt": true, "fibonacci": true, "ackermann": true,
	"cgopt": true, "mei": true,
}

// ledgerScalar is the ledger's steady-scalar set; its first ten are the
// loop programs, the last two the recursive ones.
var ledgerScalar = []string{
	"dirich", "finedif", "crnich", "icn", "orbec", "orbrk", "fractal", "mandel", "galrkn", "adapt",
	"fibonacci", "ackermann",
}

func ledgerSize(name string) bench.Size {
	if ledgerMedium[name] {
		return bench.Medium
	}
	return bench.Small
}

// eachWarmBody brings every Table 1 program, at the size the ledger runs
// it, to steady state under jit, spec and tiered engines — three calls,
// and one past the tier-up threshold for tiered — and hands each engine
// over, keyed "program/variant", with a function that makes one more
// call.
func eachWarmBody(t *testing.T, visit func(key string, e *core.Engine, call func())) {
	t.Helper()
	variants := []struct {
		name string
		opts core.Options
		warm int
	}{
		{"jit", core.Options{Tier: core.TierJIT}, 3},
		{"spec", core.Options{Tier: core.TierSpec}, 3},
		{"tiered", core.Options{Tier: core.TierJIT, Tiered: true}, core.DefaultTierThreshold + 1},
	}
	for _, b := range bench.All() {
		size := ledgerSize(b.Name)
		for _, v := range variants {
			opts := v.opts
			opts.Seed = 12345
			// A library without a pool compiles promotions inline, at a
			// point the program fixes.
			opts.Library = core.NewLibrary(core.LibraryOptions{})
			e := core.New(opts)
			if err := e.Define(b.Source(size)); err != nil {
				t.Fatalf("%s: %v", b.Name, err)
			}
			e.Precompile()
			args := b.Args(size)
			call := func() {
				e.Context().RNG.Seed(12345)
				if _, err := e.Call(b.Fn, args, 1); err != nil {
					t.Fatalf("%s/%s: %v", b.Name, v.name, err)
				}
			}
			for warm := 0; warm < v.warm; warm++ {
				call()
			}
			visit(b.Name+"/"+v.name, e, call)
			e.Close()
		}
	}
}

// dynamicInstrs returns the number of instructions one warm call of each
// body dispatches, and its opcode mix.
func dynamicInstrs(t *testing.T) (map[string]int64, map[string]map[ir.Op]int64) {
	t.Helper()
	counter := vmtest.CountInstrs(t)
	counts := map[string]int64{}
	mixes := map[string]map[ir.Op]int64{}
	eachWarmBody(t, func(key string, _ *core.Engine, call func()) {
		counter.Reset()
		call()
		counts[key], mixes[key] = counter.N(), counter.Mix()
	})
	return counts, mixes
}

// steadyScalarSum is the number behind the ledger's steady-scalar claim:
// the instructions one round of its 24 rows dispatches.
func steadyScalarSum(counts map[string]int64) int64 {
	var sum int64
	for _, name := range ledgerScalar {
		sum += counts[name+"/jit"] + counts[name+"/spec"]
	}
	return sum
}

// TestDynamicInstrsUnchanged pins code quality as a number: the
// instructions one warm call of each Table 1 program dispatches, per
// tier, counted by basic block (vmtest.CountInstrs). A code-generator,
// optimiser or allocator change that is meant to move them regenerates
// the golden with -update-generated; -v prints each row's opcode mix.
func TestDynamicInstrsUnchanged(t *testing.T) {
	counts, mixes := dynamicInstrs(t)
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%d\n", k, counts[k])
		if testing.Verbose() {
			t.Logf("%-18s %9d  %s", k, counts[k], topOps(mixes[k], counts[k]))
		}
	}
	fmt.Fprintf(&b, "steady-scalar round\t%d\n", steadyScalarSum(counts))
	text := b.String()
	if *updateGenerated {
		if err := os.WriteFile(dynamicGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d rows to %s", len(keys), dynamicGolden)
		return
	}
	want, err := os.ReadFile(dynamicGolden)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	for i, l := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if i >= len(wantLines) || l != wantLines[i] {
			w := "(none)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("dispatched instructions differ from the golden:\n  got  %s\n  want %s", l, w)
		}
	}
}

// topOps renders the opcodes that make up most of a row.
func topOps(mix map[ir.Op]int64, total int64) string {
	type share struct {
		op ir.Op
		n  int64
	}
	var all []share
	for op, n := range mix {
		all = append(all, share{op, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].op < all[j].op
	})
	var b strings.Builder
	for i, s := range all {
		if i == 8 || total == 0 {
			break
		}
		fmt.Fprintf(&b, "%s %.0f%% ", s.op, 100*float64(s.n)/float64(total))
	}
	return b.String()
}

// TestSpecExecutesNoMoreThanJIT holds the optimising tier to the JIT's
// instruction count on the ledger's ten loop programs. The two recursive
// programs are excepted because a warm call here is the paper's: the
// speculative entry itself, three calls in, below the replacement
// threshold. fibonacci's bodies are the same code either way, and
// ackermann's speculative signature is real ⊤ where the JIT sees
// integers, so its inlined levels run boxed. A session that keeps calling
// replaces that entry, and TestHotSpeculationTiersUp holds the hot
// ackermann/spec to the JIT's count.
func TestSpecExecutesNoMoreThanJIT(t *testing.T) {
	counts, _ := dynamicInstrs(t)
	for _, name := range ledgerScalar[:10] {
		if jit, spec := counts[name+"/jit"], counts[name+"/spec"]; spec > jit {
			t.Errorf("%s: spec dispatches %d instructions, jit %d", name, spec, jit)
		}
	}
}

// loopWaste counts, in one allocated body, the instructions inside loops
// that compute nothing a well-lowered loop needs: moves from a constant
// register, conversions of a value no instruction of the loop writes, and
// (innermost loops only) spill traffic.
type loopWaste struct{ constMovs, invariantItoFs, slotOps int }

func wasteIn(p *ir.Prog) loopWaste {
	type span struct{ lo, hi int }
	var loops []span
	for pos := range p.Ins {
		if t := p.Ins[pos].Target(); t != nil && int(*t) <= pos {
			loops = append(loops, span{int(*t), pos})
		}
	}
	fBase, iBase, cBase, _ := p.ConstBase()
	var w loopWaste
	for _, l := range loops {
		innermost := true
		for _, m := range loops {
			innermost = innermost && !(m != l && m.lo >= l.lo && m.hi <= l.hi)
		}
		written := map[int32]bool{} // I registers the loop writes
		for pos := l.lo; pos <= l.hi; pos++ {
			in := &p.Ins[pos]
			if d, ok := in.Def(); ok && d.Bank == ir.BankI {
				written[*d.Reg] = true
			}
			if in.Op == ir.OpILdSlot {
				written[in.A] = true
			}
		}
		for pos := l.lo; pos <= l.hi; pos++ {
			switch in := &p.Ins[pos]; in.Op {
			case ir.OpFMov:
				if innermost && in.B >= fBase {
					w.constMovs++
				}
			case ir.OpIMov:
				if innermost && in.B >= iBase {
					w.constMovs++
				}
			case ir.OpCMov:
				if innermost && in.B >= cBase {
					w.constMovs++
				}
			case ir.OpItoF:
				if innermost && !written[in.B] {
					w.invariantItoFs++
				}
			case ir.OpFLdSlot, ir.OpFStSlot, ir.OpILdSlot, ir.OpIStSlot, ir.OpCLdSlot, ir.OpCStSlot:
				if innermost {
					w.slotOps++
				}
			}
		}
	}
	return w
}

// pinnedWaste lists the bodies whose innermost loops keep such an
// instruction, with the count and the reason it is not waste. Everything
// else has none.
var pinnedWaste = map[string]loopWaste{
	// The JIT runs no optimiser ("no loop optimizations are performed"):
	// an integer variable stored into a real array (U(i,1) = f3) or
	// divided into a real ((qp - 0.5)/nq) is converted where it is used.
	// The optimising tiers hoist these.
	"dirich/jit": {invariantItoFs: 4},
	"galrkn/jit": {invariantItoFs: 2},
	// 24 real values are live across galrkn's quadrature loop at the
	// speculated signature (n real): the hoisted itof(nq) of the unrolled
	// loop and of its remainder go to slots, one load per use.
	"galrkn/spec": {slotOps: 3},
}

// TestLoopsCarryNoWaste is the static side of the pin: in the bodies that
// serve the Table 1 programs, no innermost loop materialises a constant,
// converts a loop-invariant integer or touches a spill slot, except where
// pinnedWaste says which and why.
func TestLoopsCarryNoWaste(t *testing.T) {
	eachWarmBody(t, func(key string, e *core.Engine, _ func()) {
		var got loopWaste
		for _, fname := range e.Functions() {
			for _, en := range e.Repo().Entries(fname) {
				if en.Code != nil {
					w := wasteIn(en.Code.P)
					got.constMovs += w.constMovs
					got.invariantItoFs += w.invariantItoFs
					got.slotOps += w.slotOps
				}
			}
		}
		if want := pinnedWaste[key]; got != want {
			t.Errorf("%s: innermost loops hold %+v, pinned %+v", key, got, want)
		}
	})
}

// TestComplexReadsDoNotBox: an element of a complex array that abs
// consumes is read into a C register (cld*), not boxed with its subscript
// and unboxed again, so mei's loop allocates nothing per trip — a call
// costs the same at n = 10 and n = 1000 — and mei's own bodies hold no
// gindex, under jit, spec and tiered engines. eig's result is complex by
// annotation (Table 2) and real at run time here, as it is in mei.
func TestComplexReadsDoNotBox(t *testing.T) {
	const src = `
function t = meish(H, n)
  e = eig(H'*H);
  m = size(H, 2);
  t = 0;
  for p = 1:n
    t = t + abs(e(mod(p, m) + 1))^0.5;
  end
end`
	mei := bench.ByName("mei")
	for _, v := range []struct {
		name string
		opts core.Options
		warm int
	}{
		{"jit", core.Options{Tier: core.TierJIT}, 4},
		{"spec", core.Options{Tier: core.TierSpec}, 4},
		{"tiered", core.Options{Tier: core.TierJIT, Tiered: true}, core.DefaultTierThreshold + 1},
	} {
		opts := v.opts
		opts.Seed = 12345
		opts.Library = core.NewLibrary(core.LibraryOptions{})
		e := core.New(opts)
		if err := e.Define(src + "\n" + mei.Source(bench.Small)); err != nil {
			t.Fatal(err)
		}
		H := mei.Args(bench.Small)[0]
		call := func(fn string, args ...*mat.Value) func() {
			return func() {
				if _, err := e.Call(fn, args, 1); err != nil {
					t.Fatalf("%s/%s: %v", fn, v.name, err)
				}
			}
		}
		short, long := call("meish", H, mat.Scalar(10)), call("meish", H, mat.Scalar(1000))
		for warm := 0; warm < v.warm; warm++ {
			short()
			long()
			call("mei", H)()
			e.Drain()
		}
		if a, b := testing.AllocsPerRun(5, short), testing.AllocsPerRun(5, long); a != b {
			t.Errorf("%s: a call allocates %v objects at n = 10 and %v at n = 1000", v.name, a, b)
		}
		for _, en := range e.Repo().Entries("mei") {
			for pos, in := range en.Code.P.Ins {
				if in.Op == ir.OpGIndex {
					t.Errorf("%s: mei%v reads e(p) generically at +%d:\n%s", v.name, en.Sig, pos, en.Code.P.Disasm())
				}
			}
		}
		e.Close()
	}
}

type fileResolver map[string]*ast.Function

func (r fileResolver) LookupFunction(name string) *ast.Function { return r[name] }

// TestAssignmentsWriteTheirDestination: in the code selected for the
// Table 1 programs — as the JIT leaves it and after the optimiser — no
// move copies a temporary that the instruction right before it computed
// and nothing else reads: that instruction writes the destination itself
// (codegen's retarget). Checked on unallocated code, where a temporary is
// a register of its own. One shape is pinned instead: a register-allocated
// *variable* assigned once and copied once, which is what the inliner
// makes of fa = fhump(a) (y_inl = ...; fa = y_inl) — the JIT has no copy
// propagation to join the two, the optimiser does.
func TestAssignmentsWriteTheirDestination(t *testing.T) {
	pinned := map[string]int{"adapt selected": 5}
	for _, b := range bench.All() {
		file, err := parser.Parse(b.Source(bench.Small))
		if err != nil {
			t.Fatal(err)
		}
		res := fileResolver{}
		for _, fn := range file.Funcs {
			res[fn.Name] = fn
		}
		work := inline.Expand(res[b.Fn], res)
		g := cfg.Build(work.Body)
		tbl := disambig.Analyze(g, work.Ins, disambig.ResolverFunc(func(n string) bool { return res[n] != nil }))
		params := map[string]types.Type{}
		for i, typ := range types.SignatureOf(b.Args(bench.Small)) {
			params[work.Ins[i]] = typ
		}
		prog, err := codegen.Compile(work, infer.Forward(g, params, infer.Opts{}), tbl, codegen.DefaultConfig())
		if err != nil {
			continue // deferred to the interpreter: no code to judge
		}
		for _, stage := range []string{"selected", "optimised"} {
			if stage == "optimised" {
				opt.Run(prog)
			}
			mentions := [3]map[int32]int{{}, {}, {}}
			leader := map[int]bool{}
			var buf [3]ir.Operand
			for pos := range prog.Ins {
				in := &prog.Ins[pos]
				for _, u := range in.Uses(&buf) {
					mentions[u.Bank][*u.Reg]++
				}
				if d, ok := in.Def(); ok {
					mentions[d.Bank][*d.Reg]++
				}
				if tgt := in.Target(); tgt != nil {
					leader[int(*tgt)], leader[pos+1] = true, true
				}
			}
			var found []string
			for pos := 1; pos < len(prog.Ins); pos++ {
				in, prev := &prog.Ins[pos], &prog.Ins[pos-1]
				if in.Op != ir.OpFMov && in.Op != ir.OpIMov && in.Op != ir.OpCMov || leader[pos] {
					continue
				}
				src, _ := in.Def() // a move's operands share its bank
				if d, ok := prev.Def(); ok && d.Bank == src.Bank && *d.Reg == in.B && mentions[d.Bank][in.B] == 2 {
					found = append(found, fmt.Sprintf("+%d: %v copies what %v computed and nothing else reads", pos, *in, *prev))
				}
			}
			if len(found) != pinned[b.Name+" "+stage] {
				t.Errorf("%s (%s): %d such moves, pinned %d:\n  %s", b.Name, stage, len(found), pinned[b.Name+" "+stage], strings.Join(found, "\n  "))
			}
		}
	}
}

// standardMethods are the exported method names a type declares to
// satisfy an interface of the standard library, which calls them where no
// source of this module names them.
var standardMethods = map[string]bool{"String": true, "Error": true, "Unwrap": true}

// TestNoUnreferencedExports: every exported function or method declared
// outside tests under internal/ and cmd/ is named somewhere in the module
// besides its own declaration — by a caller, a test, a benchmark, the
// public package or an example — unless a standard interface calls it.
// Every unexported package-level function declared there is named
// somewhere in its own package (its directory, tests included) besides
// its declaration. Names are matched as identifiers, not resolved, so a
// name shared with another declaration that is used passes.
func TestNoUnreferencedExports(t *testing.T) {
	root := filepath.Join("..", "..")
	fset := token.NewFileSet()
	refs := map[string]int{}
	pkgRefs := map[string]map[string]int{} // directory → identifier → uses
	type decl struct{ dir, name, pos string }
	var exported, unexported []decl
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := goparser.ParseFile(fset, path, nil, goparser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		dir := filepath.Dir(rel)
		own := map[*goast.Ident]bool{}
		if !strings.HasSuffix(rel, "_test.go") && (strings.HasPrefix(rel, "internal/") || strings.HasPrefix(rel, "cmd/")) {
			for _, dl := range f.Decls {
				fd, ok := dl.(*goast.FuncDecl)
				if !ok {
					continue
				}
				dc := decl{dir, fd.Name.Name, fset.Position(fd.Pos()).String()}
				switch {
				case fd.Name.IsExported():
					exported = append(exported, dc)
				case fd.Recv == nil && fd.Name.Name != "main" && fd.Name.Name != "init":
					unexported = append(unexported, dc)
				default:
					continue
				}
				own[fd.Name] = true
			}
		}
		if pkgRefs[dir] == nil {
			pkgRefs[dir] = map[string]int{}
		}
		goast.Inspect(f, func(n goast.Node) bool {
			if id, ok := n.(*goast.Ident); ok && !own[id] {
				refs[id.Name]++
				pkgRefs[dir][id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(exported) == 0 || len(unexported) == 0 {
		t.Fatal("no function found under internal/ or cmd/")
	}
	for _, d := range exported {
		if refs[d.name] == 0 && !standardMethods[d.name] {
			t.Errorf("%s: %s is exported and named nowhere else in the module", d.pos, d.name)
		}
	}
	for _, d := range unexported {
		if pkgRefs[d.dir][d.name] == 0 {
			t.Errorf("%s: %s is named nowhere else in its package", d.pos, d.name)
		}
	}
}
