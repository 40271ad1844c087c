package core_test

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/ir"
	"repro/internal/mat"
)

var updateGenerated = flag.Bool("update-generated", false,
	"rewrite testdata/generated_code.golden from the code this build generates")

const generatedGolden = "testdata/generated_code.golden"

// goldenProgram is one program whose generated code is pinned.
type goldenProgram struct {
	name, fn, src string
	args          []*mat.Value
}

func goldenPrograms(t *testing.T) []goldenProgram {
	t.Helper()
	var out []goldenProgram
	for _, b := range bench.All() {
		out = append(out, goldenProgram{b.Name, b.Fn, b.Source(bench.Small), b.Args(bench.Small)})
	}
	wave := func(rows, cols int, phase float64) *mat.Value {
		v := mat.New(rows, cols)
		for i := range v.Re() {
			v.Re()[i] = 1 + 0.25*float64((i+int(phase))%5)
		}
		return v
	}
	const n = 40
	e, d := make([]float64, n), make([]float64, n)
	for i := range e {
		e[i], d[i] = -1, 6
	}
	penta, err := mat.SparseFromDiags(n, n, [][]float64{e, e, d, e, e}, []int{-2, -1, 0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	extra := map[string][]*mat.Value{
		"matmul":    {wave(n, n, 1), wave(n, n, 2)},
		"elemchain": {wave(n, 1, 3), wave(n, 1, 4), wave(n, 1, 5)},
		"spcg":      {penta, wave(n, 1, 6), mat.Scalar(10)},
	}
	files, err := filepath.Glob("../../benchmark/programs/*.m")
	if err != nil || len(files) != len(extra) {
		t.Fatalf("benchmark/programs/*.m: %d files (%v), want %d", len(files), err, len(extra))
	}
	sort.Strings(files)
	for _, f := range files {
		src, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		name := strings.TrimSuffix(filepath.Base(f), ".m")
		if extra[name] == nil {
			t.Fatalf("no arguments for %s", f)
		}
		out = append(out, goldenProgram{name, name, string(src), extra[name]})
	}
	return out
}

// progLine renders everything the pin covers about one compiled body.
func progLine(p *ir.Prog) string {
	h := sha256.New()
	h.Write([]byte(p.Disasm()))
	_ = binary.Write(h, binary.LittleEndian, p.Aux)
	var params strings.Builder
	for _, b := range p.Params {
		fmt.Fprintf(&params, "%s%d", b.Bank, b.Reg)
		if b.Slot {
			params.WriteByte('s')
		}
		params.WriteByte(',')
	}
	return fmt.Sprintf("%x ins=%d num=%d/%d/%d slots=%d/%d/%d params=%s",
		h.Sum(nil)[:12], len(p.Ins), p.NumF, p.NumI, p.NumC, p.SlotsF, p.SlotsI, p.SlotsC, params.String())
}

// generatedCode compiles every pinned program under every pipeline the
// engine has and returns one line per compiled body, sorted by key.
func generatedCode(t *testing.T) []string {
	t.Helper()
	variants := []struct {
		name string
		opts core.Options
	}{
		{"jit", core.Options{Tier: core.TierJIT}},
		{"spec", core.Options{Tier: core.TierSpec}},
		{"tiered", core.Options{Tier: core.TierJIT, Tiered: true, TierThreshold: 2}},
	}
	lines := map[string]string{}
	add := func(key string, p *ir.Prog) {
		if _, dup := lines[key]; dup {
			t.Fatalf("two compiled bodies under one key %q", key)
		}
		lines[key] = progLine(p)
	}
	for _, gp := range goldenPrograms(t) {
		for _, v := range variants {
			for _, fuse := range []bool{false, true} {
				for _, spill := range []bool{false, true} {
					opts := v.opts
					opts.FuseElemwise, opts.SpillAll, opts.Seed = fuse, spill, 12345
					// A library without a pool compiles promotions and OSR
					// continuations inline, at a point the program fixes.
					opts.Library = core.NewLibrary(core.LibraryOptions{})
					e := core.New(opts)
					if err := e.Define(gp.src); err != nil {
						t.Fatalf("%s: %v", gp.name, err)
					}
					e.Precompile()
					for call := 0; call < 3; call++ {
						if _, err := e.Call(gp.fn, gp.args, 1); err != nil {
							t.Fatalf("%s/%s: %v", gp.name, v.name, err)
						}
					}
					prefix := fmt.Sprintf("%s %s fuse=%t spill=%t", gp.name, v.name, fuse, spill)
					for _, fname := range e.Functions() {
						for _, en := range e.Repo().Entries(fname) {
							if en.Code != nil {
								add(fmt.Sprintf("%s %s(%s) q=%d", prefix, fname, en.Sig.Key(), en.Quality), en.Code.P)
							}
						}
					}
					for _, fd := range e.Library().Profiles().Export() {
						fn := e.LookupFunction(fd.Name)
						fp := e.Library().Profiles().Func(fd.Name, e.Repo().Generation(fd.Name))
						for _, sd := range fd.Sigs {
							for i, s := range fn.Body {
								switch s.(type) {
								case *ast.For, *ast.While:
									if en := fp.Sig(sd.Key).OSRSite(s).Entry(); en != nil {
										add(fmt.Sprintf("%s %s@osr%d(%s)", prefix, fd.Name, i, en.Sig.Key()), en.Code.P)
									}
								}
							}
						}
					}
					e.Close()
				}
			}
		}
	}
	out := make([]string, 0, len(lines))
	for k, l := range lines {
		out = append(out, k+"\t"+l)
	}
	sort.Strings(out)
	return out
}

// TestGeneratedCodeUnchanged pins the instructions the compiler emits:
// the 16 Table 1 programs and benchmark/programs/*.m, compiled by the
// JIT, by the optimising pipeline at speculated and profiled signatures
// and as OSR continuations, with fusion off and on, allocated and
// spilled. An optimiser or allocator change that is meant to keep the
// generated code leaves the golden alone; one that is meant to change it
// regenerates the file with -update-generated and reviews the diff.
func TestGeneratedCodeUnchanged(t *testing.T) {
	got := generatedCode(t)
	var kinds [3]int
	for _, l := range got {
		for i, k := range []string{" jit ", " spec ", "@osr"} {
			if strings.Contains(l, k) {
				kinds[i]++
			}
		}
	}
	if kinds[0] == 0 || kinds[1] == 0 || kinds[2] == 0 {
		t.Fatalf("coverage hole: jit/spec/osr bodies = %v", kinds)
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGenerated {
		if err := os.WriteFile(generatedGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d bodies to %s", len(got), generatedGolden)
		return
	}
	want, err := os.ReadFile(generatedGolden)
	if err != nil {
		t.Fatal(err)
	}
	if text == string(want) {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	wantSet := make(map[string]bool, len(wantLines))
	for _, l := range wantLines {
		wantSet[l] = true
	}
	shown := 0
	for _, l := range got {
		if !wantSet[l] && shown < 10 {
			t.Errorf("generated code differs from the golden:\n  %s", l)
			shown++
		}
	}
	t.Fatalf("%d bodies generated, %d in %s; they differ", len(got), len(wantLines), generatedGolden)
}
