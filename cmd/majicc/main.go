// Command majicc is the batch compiler driver: it runs MaJIC's
// compilation pipeline over a .m file and dumps the intermediate
// results — tokens, AST, the CFG, the disambiguator's symbol table,
// type annotations, speculative signatures, and the generated IR
// before and after backend optimization and register allocation.
//
//	majicc -dump=ir file.m
//	majicc -dump=types -fn=poly -sig='int,real' file.m
//	majicc -dump=spec file.m
//	majicc -dump=asm -tier=jit -sig=int file.m    the body a JIT engine runs
//	majicc -dump=asm -tier=spec file.m            the speculative tier's, at its guessed signature
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/cfg"
	"repro/internal/codegen"
	"repro/internal/core"
	"repro/internal/disambig"
	"repro/internal/infer"
	"repro/internal/lexer"
	"repro/internal/opt"
	"repro/internal/parser"
	"repro/internal/regalloc"
	"repro/internal/telemetry"
	"repro/internal/types"
)

func main() {
	dump := flag.String("dump", "ir", "what to print: tokens|ast|cfg|symbols|types|spec|ir|optir|asm|rules")
	fnName := flag.String("fn", "", "function to compile (default: first in file)")
	sigFlag := flag.String("sig", "", "comma-separated parameter types: int|real|cplx|strg|matrix (default: all matrix)")
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (parse, disambig, typeinf, codegen stage spans) on exit")
	tierFlag := flag.String("tier", "", "with -dump=asm: print the body an engine of this tier runs (jit|spec|falcon|mcc), compiled by the engine's own pipeline with the file's other functions defined (inlining, the tier's unroll factor); spec without -sig uses the speculated signature")
	flag.Parse()

	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer(0)
		defer func() {
			if err := tracer.WriteFile(*traceFile); err != nil {
				fmt.Fprintf(os.Stderr, "majicc: -trace: %v\n", err)
			}
		}()
	}
	// span times one pipeline stage; inert when -trace is unset (nil
	// tracer receivers are no-ops).
	span := func(cat, name string, t0 time.Time) {
		tracer.Span(cat, name, 0, t0, time.Since(t0))
	}

	if *dump == "rules" {
		printRules()
		return
	}
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: majicc [-dump=...] file.m")
		os.Exit(2)
	}
	srcBytes, err := os.ReadFile(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	src := string(srcBytes)

	if *dump == "tokens" {
		toks, err := lexer.Tokenize(src)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, t := range toks {
			fmt.Printf("%d:%d\t%s\n", t.Line, t.Col, t)
		}
		return
	}

	t0 := time.Now()
	file, err := parser.Parse(src)
	span(telemetry.CatParse, flag.Arg(0), t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *dump == "ast" {
		fmt.Print(ast.Print(file))
		return
	}
	if len(file.Funcs) == 0 {
		fmt.Fprintln(os.Stderr, "majicc: no function definitions in file")
		os.Exit(1)
	}
	fn := file.Funcs[0]
	if *fnName != "" {
		fn = nil
		for _, f := range file.Funcs {
			if f.Name == *fnName {
				fn = f
			}
		}
		if fn == nil {
			fmt.Fprintf(os.Stderr, "majicc: no function %q\n", *fnName)
			os.Exit(1)
		}
	}

	if *tierFlag != "" {
		if *dump != "asm" {
			fmt.Fprintln(os.Stderr, "majicc: -tier goes with -dump=asm")
			os.Exit(2)
		}
		if err := dumpTier(src, fn, *tierFlag, *sigFlag); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		return
	}

	g := cfg.Build(fn.Body)
	if *dump == "cfg" {
		fmt.Print(g.String())
		return
	}
	known := map[string]bool{}
	for _, f := range file.Funcs {
		known[f.Name] = true
	}
	t0 = time.Now()
	tbl := disambig.Analyze(g, fn.Ins, disambig.ResolverFunc(func(n string) bool { return known[n] }))
	span(telemetry.CatDisambig, fn.Name, t0)
	if *dump == "symbols" {
		fmt.Printf("variables of %s:\n", fn.Name)
		for v := range tbl.Vars {
			fmt.Printf("  %s\n", v)
		}
		if tbl.HasAmbiguous {
			fmt.Println("warning: function contains ambiguous or undefined symbols")
		}
		return
	}

	if *dump == "spec" {
		sig := infer.Speculate(fn, g, infer.Opts{})
		fmt.Printf("speculative signature of %s: %s\n", fn.Name, sig)
		return
	}

	sig, err := parseSig(*sigFlag, len(fn.Ins))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	params := map[string]types.Type{}
	for i, p := range fn.Ins {
		params[p] = sig[i]
	}
	t0 = time.Now()
	res := infer.Forward(g, params, infer.Opts{})
	span(telemetry.CatTypeInf, fn.Name, t0)
	if *dump == "types" {
		fmt.Printf("signature: %s\n", sig)
		fmt.Printf("%d calculator rule applications\n", res.RuleApplications)
		fmt.Println("variable types:")
		for name, t := range res.Vars {
			fmt.Printf("  %-12s %s\n", name, t)
		}
		return
	}

	t0 = time.Now()
	prog, err := codegen.Compile(fn, res, tbl, codegen.DefaultConfig())
	span(telemetry.CatCodegen, fn.Name, t0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	switch *dump {
	case "ir":
		fmt.Print(prog.Disasm())
	case "optir":
		opt.Run(prog)
		fmt.Print(prog.Disasm())
	case "asm":
		opt.Run(prog)
		regalloc.Allocate(prog, regalloc.DefaultOptions())
		fmt.Print(prog.Disasm())
	default:
		fmt.Fprintf(os.Stderr, "unknown dump kind %q\n", *dump)
		os.Exit(2)
	}
}

// dumpTier prints the code an engine of the named tier would run for fn.
func dumpTier(src string, fn *ast.Function, tierName, sigSpec string) error {
	tier, err := core.ParseTier(tierName)
	if err != nil {
		return err
	}
	e := core.New(core.Options{Tier: tier})
	defer e.Close()
	if err := e.Define(src); err != nil {
		return err
	}
	var sig types.Signature
	if sigSpec != "" || tier != core.TierSpec {
		if sig, err = parseSig(sigSpec, len(fn.Ins)); err != nil {
			return err
		}
	}
	prog, sig, err := e.Lower(fn.Name, sig)
	if err != nil {
		return err
	}
	fmt.Printf("; %s tier, signature %s\n%s", tier, sig, prog.Disasm())
	return nil
}

// printRules dumps the type calculator's forward rule database — the
// paper's "about 250 rules", ordered most-restrictive-first per entry.
func printRules() {
	rules := infer.DefaultCalc.Rules()
	names := make([]string, 0, len(rules))
	for n := range rules {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0
	for _, n := range names {
		fmt.Printf("%s:\n", n)
		for i, d := range rules[n] {
			fmt.Printf("  %2d. %s\n", i+1, d)
			total++
		}
	}
	fmt.Printf("\n%d forward rules across %d operators/builtins\n", total, len(names))
}

func parseSig(s string, n int) (types.Signature, error) {
	sig := make(types.Signature, n)
	for i := range sig {
		sig[i] = types.Top
	}
	if s == "" {
		return sig, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("signature has %d entries, function takes %d", len(parts), n)
	}
	for i, p := range parts {
		switch strings.TrimSpace(p) {
		case "int":
			sig[i] = types.ScalarOf(types.IInt, types.RangeTop)
		case "real":
			sig[i] = types.ScalarOf(types.IReal, types.RangeTop)
		case "cplx":
			sig[i] = types.ScalarOf(types.ICplx, types.RangeTop)
		case "strg":
			sig[i] = types.MatrixOf(types.IStrg)
		case "matrix":
			sig[i] = types.MatrixOf(types.IReal)
		case "top":
			sig[i] = types.Top
		default:
			return nil, fmt.Errorf("unknown type %q (int|real|cplx|strg|matrix|top)", p)
		}
	}
	return sig, nil
}
