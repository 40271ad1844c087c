package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJitLogShowsReplacedSpeculation: a script that keeps calling a
// speculated function with integers crosses the tier-up threshold, and
// `majic -tier=spec -jit-log` lists the replacement of the speculative
// entry as a promotion with its cause and the signature it replaced.
func TestJitLogShowsReplacedSpeculation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fib.m")
	src := "function y = fib(n)\n  if n < 2\n    y = n;\n  else\n    y = fib(n-1) + fib(n-2);\n  end\nend\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every tier-up is a replacement journaled in one form: the speculative
	// real entry replaced for the integers its calls bring, and under prod
	// the placeholder the first miss parked at the widened signature.
	for _, row := range []struct{ tier, cause, replaces string }{
		{"spec", "cause=observed-classes", "(replaces real"},
		{"prod", "cause=hot-signature", "(replaces int|<1,1>|<1,1>|⊤"},
	} {
		t.Run(row.tier, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-tier=" + row.tier, "-jit-log", "-e", "for k = 1:10, x = fib(12); end, x", path}, strings.NewReader(""), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "144") {
				t.Errorf("stdout %q, want x = 144", stdout.String())
			}
			log := stderr.String()
			if !strings.Contains(log, "promotion fib sig=int") || !strings.Contains(log, row.cause) || !strings.Contains(log, row.replaces) {
				t.Errorf("-jit-log has no replacement of fib's %s entry:\n%s", row.tier, log)
			}
		})
	}
}

func TestNeedsMore(t *testing.T) {
	cases := map[string]bool{
		"x = 1;\n":                              false,
		"if x > 0\n":                            true,
		"if x > 0\n  y = 1;\nend\n":             false,
		"for i = 1:10\n  s = s + i;\n":          true,
		"while x\n":                             true,
		"function y = f(x)\n":                   true,
		"function y = f(x)\n  y = x;\nend\n":    false,
		"x = v(2); % end in comment\n":          false,
		"for i = 1:3\n  if i > 1\n":             true,
		"for i = 1:3\n  if i > 1\n  end\nend\n": false,
	}
	for src, want := range cases {
		if got := needsMore(src); got != want {
			t.Errorf("needsMore(%q) = %v, want %v", src, got, want)
		}
	}
}
