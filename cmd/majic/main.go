// Command majic is the interactive MATLAB-like front end: a REPL that
// interprets interactive statements and defers function calls to the
// code repository, which compiles them behind the scenes (JIT by
// default; -tier selects the execution strategy).
//
//	majic                      # interactive session, JIT tier
//	majic -tier=spec f.m g.m   # load files, speculative precompilation
//	majic -e 'x = fib(20)' f.m # one-shot evaluation
//	majic -tier=prod -jit-log  # the daemon's fast path (tiered JIT,
//	                           # background compiles, fused kernels);
//	                           # the journal lists its promotions
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr))
}

// run is the command: it parses args, evaluates or runs the REPL over
// stdin, and returns the exit status.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("majic", flag.ContinueOnError)
	fs.SetOutput(stderr)
	tierFlag := fs.String("tier", "jit", "execution strategy: interp|mcc|falcon|jit|spec in paper mode, or prod (tiered JIT, background compiles, fused kernels)")
	platFlag := fs.String("platform", "sparc", "platform profile: sparc|mips")
	eval := fs.String("e", "", "evaluate this code and exit")
	seed := fs.Uint64("seed", 0, "RNG seed")
	traceFile := fs.String("trace", "", "write a Chrome trace-event JSON file (per-eval spans: parse, disambig, typeinf, codegen, queue wait, exec, tier-up, OSR) on exit")
	jitLog := fs.Bool("jit-log", false, "print the tiering event journal (promotions, evictions, cause-attributed OSR deopts) to stderr on exit")
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}

	opts, err := core.Preset(*tierFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
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
				fmt.Fprintf(stderr, "majic: -trace: %v\n", err)
			}
		}
		if journal != nil {
			journal.WriteText(stderr)
		}
	}()

	opts.Platform = platform
	opts.Out = stdout
	opts.Seed = *seed
	opts.Tracer = tracer
	opts.Journal = journal
	e := core.New(opts)
	defer e.Close()

	// Load .m files given on the command line into the repository.
	for _, path := range fs.Args() {
		src, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintf(stderr, "majic: %v\n", err)
			return 1
		}
		if err := e.EvalString(string(src)); err != nil {
			fmt.Fprintf(stderr, "majic: %s: %v\n", path, err)
			return 1
		}
	}
	e.Precompile()

	if *eval != "" {
		if err := e.EvalString(*eval); err != nil {
			fmt.Fprintf(stderr, "majic: %v\n", err)
			return 1
		}
		return 0
	}

	fmt.Fprintln(stdout, "MaJIC reproduction — MATLAB-like front end (tier "+*tierFlag+")")
	fmt.Fprintln(stdout, "Type MATLAB statements; 'exit' or Ctrl-D quits.")
	sc := bufio.NewScanner(stdin)
	var pending strings.Builder
	prompt := ">> "
	for {
		fmt.Fprint(stdout, prompt)
		if !sc.Scan() {
			fmt.Fprintln(stdout)
			return 0
		}
		line := sc.Text()
		if pending.Len() == 0 {
			switch strings.TrimSpace(line) {
			case "exit", "quit":
				return 0
			case "":
				continue
			case "who", "whos":
				for _, name := range e.WorkspaceNames() {
					v, _ := e.Workspace(name)
					fmt.Fprintf(stdout, "  %-12s %dx%d %s\n", name, v.Rows(), v.Cols(), v.Kind())
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
			fmt.Fprintf(stderr, "error: %v\n", err)
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
