// Command majicc is the batch compiler driver: it compiles one function
// of a .m file through the engine and dumps what each stage produced —
// tokens, AST, the inlined body's CFG and variables, type annotations,
// the speculative signature, and the generated IR as selected, after the
// backend passes and after register allocation. Every dump past the AST
// is the engine's own compile (core.Engine.Lower), so -dump=asm prints
// the code the -tier engine runs for that signature.
//
//	majicc -dump=ir file.m
//	majicc -dump=types -fn=poly -sig='int,real' file.m
//	majicc -dump=spec file.m
//	majicc -dump=asm -sig=int file.m         the body a JIT engine runs
//	majicc -dump=asm -tier=spec file.m       the speculative tier's, at its guessed signature
//	majicc -dump=asm -tier=prod -sig=int file.m   the tiered engine's tier-up
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/ast"
	"repro/internal/core"
	"repro/internal/infer"
	"repro/internal/lexer"
	"repro/internal/parser"
	"repro/internal/telemetry"
	"repro/internal/types"
)

// dumps are the kinds -dump takes; tokens, ast and rules need no compile.
var dumps = []string{"tokens", "ast", "cfg", "symbols", "types", "spec", "ir", "optir", "asm", "rules"}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the command: it parses args, compiles and prints the dump, and
// returns the exit status.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("majicc", flag.ContinueOnError)
	fs.SetOutput(stderr)
	dump := fs.String("dump", "ir", "what to print: "+strings.Join(dumps, "|"))
	fnName := fs.String("fn", "", "function to compile (default: first in file)")
	sigFlag := fs.String("sig", "", "comma-separated parameter types: int|real|cplx|strg|matrix|top (default: all top; under -tier=spec, the speculated signature)")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON file (parse, disambig, typeinf, codegen stage spans) on exit")
	tierFlag := fs.String("tier", "jit", "the engine whose compile to print: mcc|falcon|jit|spec in paper mode, or prod (tiered JIT: the tier-up's optimising pipeline)")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if !slices.Contains(dumps, *dump) {
		fmt.Fprintf(stderr, "unknown dump kind %q\n", *dump)
		return 2
	}
	opts, err := core.Preset(*tierFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if opts.Tier == core.TierInterp {
		fmt.Fprintln(stderr, "majicc: the interp tier compiles nothing")
		return 2
	}
	if *dump == "rules" {
		printRules(stdout)
		return 0
	}
	if fs.NArg() != 1 {
		fmt.Fprintln(stderr, "usage: majicc [-dump=...] file.m")
		return 2
	}
	srcBytes, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	src := string(srcBytes)

	if *dump == "tokens" {
		toks, err := lexer.Tokenize(src)
		if err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
		for _, t := range toks {
			fmt.Fprintf(stdout, "%d:%d\t%s\n", t.Line, t.Col, t)
		}
		return 0
	}

	if *traceFile != "" {
		opts.Tracer = telemetry.NewTracer(0)
		defer func() {
			if err := opts.Tracer.WriteFile(*traceFile); err != nil {
				fmt.Fprintf(stderr, "majicc: -trace: %v\n", err)
			}
		}()
	}
	t0 := time.Now()
	file, err := parser.Parse(src)
	opts.Tracer.Span(telemetry.CatParse, fs.Arg(0), 0, t0, time.Since(t0))
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if *dump == "ast" {
		fmt.Fprint(stdout, ast.Print(file))
		return 0
	}
	if len(file.Funcs) == 0 {
		fmt.Fprintln(stderr, "majicc: no function definitions in file")
		return 1
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
			fmt.Fprintf(stderr, "majicc: no function %q\n", *fnName)
			return 1
		}
	}

	e := core.New(opts)
	defer e.Close()
	if err := e.Define(src); err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	var sig types.Signature
	if *dump != "spec" && (*sigFlag != "" || opts.Tier != core.TierSpec) {
		if sig, err = parseSig(*sigFlag, len(fn.Ins)); err != nil {
			fmt.Fprintln(stderr, err)
			return 1
		}
	}
	low, err := e.Lower(fn.Name, sig)
	if text := stage(low, *dump, fn.Name, *tierFlag); text != "" {
		fmt.Fprint(stdout, text)
		return 0
	}
	fmt.Fprintln(stderr, err)
	return 1
}

// stage renders one dump kind from what Lower recorded, or "" when the
// compile did not get that far.
func stage(low *core.Lowering, dump, fn, tier string) string {
	var b strings.Builder
	switch {
	case low == nil:
	case dump == "spec" && low.Sig != nil:
		fmt.Fprintf(&b, "speculative signature of %s: %s\n", fn, low.Sig)
	case dump == "cfg" && low.Graph != nil:
		b.WriteString(low.Graph.String())
	case dump == "symbols" && low.Symbols != nil:
		fmt.Fprintf(&b, "variables of %s:\n", fn)
		for _, v := range sortedKeys(low.Symbols.Vars) {
			fmt.Fprintf(&b, "  %s\n", v)
		}
		if low.Symbols.HasAmbiguous {
			b.WriteString("warning: function contains ambiguous or undefined symbols\n")
		}
	case dump == "types" && low.Types != nil:
		fmt.Fprintf(&b, "signature: %s\n", low.Sig)
		fmt.Fprintf(&b, "%d calculator rule applications\n", low.Types.RuleApplications)
		b.WriteString("variable types:\n")
		for _, name := range sortedKeys(low.Types.Vars) {
			fmt.Fprintf(&b, "  %-12s %s\n", name, low.Types.Vars[name])
		}
	default:
		if code := map[string]string{"ir": low.IR, "optir": low.OptIR, "asm": low.Asm}[dump]; code != "" {
			fmt.Fprintf(&b, "; %s tier, signature %s\n%s", tier, low.Sig, code)
		}
	}
	return b.String()
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// printRules dumps the type calculator's forward rule database — the
// paper's "about 250 rules", ordered most-restrictive-first per entry.
func printRules(w io.Writer) {
	rules := infer.DefaultCalc.Rules()
	names := make([]string, 0, len(rules))
	for n := range rules {
		names = append(names, n)
	}
	sort.Strings(names)
	total := 0
	for _, n := range names {
		fmt.Fprintf(w, "%s:\n", n)
		for i, d := range rules[n] {
			fmt.Fprintf(w, "  %2d. %s\n", i+1, d)
			total++
		}
	}
	fmt.Fprintf(w, "\n%d forward rules across %d operators/builtins\n", total, len(names))
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
