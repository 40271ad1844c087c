// Command majic is the interactive MATLAB-like front end: a REPL that
// interprets interactive statements and defers function calls to the
// code repository, which compiles them behind the scenes (JIT by
// default; -tier selects the execution strategy).
//
//	majic                      # interactive session, JIT tier
//	majic -tier=spec f.m g.m   # load files, speculative precompilation
//	majic -e 'x = fib(20)' f.m # one-shot evaluation
//	majic -async -workers=4    # background compilation service:
//	                           # compiles run on a bounded worker pool
//	                           # off the REPL thread (single-flight
//	                           # deduplicated), so -tier=spec sessions
//	                           # never stall on speculative compiles
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func main() {
	tierFlag := flag.String("tier", "jit", "execution tier: interp|mcc|falcon|jit|spec")
	platFlag := flag.String("platform", "sparc", "platform profile: sparc|mips")
	eval := flag.String("e", "", "evaluate this code and exit")
	seed := flag.Uint64("seed", 0, "RNG seed")
	engineOptions := core.EngineFlags(flag.CommandLine)
	traceFile := flag.String("trace", "", "write a Chrome trace-event JSON file (per-eval spans: parse, disambig, typeinf, codegen, queue wait, exec, tier-up, OSR) on exit")
	jitLog := flag.Bool("jit-log", false, "print the tiering event journal (promotions, evictions, cause-attributed OSR deopts) to stderr on exit")
	flag.Parse()

	opts := engineOptions()
	tier, err := core.ParseTier(*tierFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	platform := core.PlatformSPARC
	if *platFlag == "mips" {
		platform = core.PlatformMIPS
	}

	var tracer *telemetry.Tracer
	if *traceFile != "" {
		tracer = telemetry.NewTracer(0)
	}
	var journal *telemetry.Journal
	if *jitLog {
		journal = telemetry.NewJournal(0)
	}
	// Registered before e.Close's defer so the dump runs after the
	// engine drains (LIFO): spans from inline shutdown compiles land in
	// the file.
	defer func() {
		if tracer != nil {
			if err := tracer.WriteFile(*traceFile); err != nil {
				fmt.Fprintf(os.Stderr, "majic: -trace: %v\n", err)
			}
		}
		if journal != nil {
			journal.WriteText(os.Stderr)
		}
	}()

	opts.Tier = tier
	opts.Platform = platform
	opts.Out = os.Stdout
	opts.Seed = *seed
	opts.Tracer = tracer
	opts.Journal = journal
	e := core.New(opts)
	defer e.Close()

	// Load .m files given on the command line into the repository.
	for _, path := range flag.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "majic: %v\n", err)
			os.Exit(1)
		}
		if err := e.EvalString(string(src)); err != nil {
			fmt.Fprintf(os.Stderr, "majic: %s: %v\n", path, err)
			os.Exit(1)
		}
	}
	e.Precompile()

	if *eval != "" {
		if err := e.EvalString(*eval); err != nil {
			fmt.Fprintf(os.Stderr, "majic: %v\n", err)
			os.Exit(1)
		}
		return
	}

	fmt.Println("MaJIC reproduction — MATLAB-like front end (tier " + tier.String() + ")")
	fmt.Println("Type MATLAB statements; 'exit' or Ctrl-D quits.")
	sc := bufio.NewScanner(os.Stdin)
	var pending strings.Builder
	prompt := ">> "
	for {
		fmt.Print(prompt)
		if !sc.Scan() {
			fmt.Println()
			return
		}
		line := sc.Text()
		if pending.Len() == 0 {
			switch strings.TrimSpace(line) {
			case "exit", "quit":
				return
			case "":
				continue
			case "who", "whos":
				for _, name := range e.WorkspaceNames() {
					v, _ := e.Workspace(name)
					fmt.Printf("  %-12s %dx%d %s\n", name, v.Rows(), v.Cols(), v.Kind())
				}
				continue
			}
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		src := pending.String()
		if needsMore(src) {
			prompt = ".. "
			continue
		}
		pending.Reset()
		prompt = ">> "
		if err := e.EvalString(src); err != nil {
			fmt.Fprintf(os.Stderr, "error: %v\n", err)
		}
	}
}

// needsMore reports whether the accumulated source has unclosed blocks
// (a crude but effective multi-line heuristic for the REPL).
func needsMore(src string) bool {
	depth := 0
	for _, line := range strings.Split(src, "\n") {
		code := line
		if i := strings.IndexByte(code, '%'); i >= 0 {
			code = code[:i]
		}
		for _, tok := range strings.FieldsFunc(code, func(r rune) bool {
			return !(r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9')
		}) {
			switch tok {
			case "if", "while", "for", "switch", "function":
				depth++
			case "end":
				depth--
			}
		}
	}
	return depth > 0
}
