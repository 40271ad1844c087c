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
	var stdout, stderr bytes.Buffer
	code := run([]string{"-tier=spec", "-jit-log", "-e", "for k = 1:10, x = fib(12); end, x", path}, strings.NewReader(""), &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr.String())
	}
	if !strings.Contains(stdout.String(), "144") {
		t.Errorf("stdout %q, want x = 144", stdout.String())
	}
	log := stderr.String()
	if !strings.Contains(log, "promotion fib sig=int") || !strings.Contains(log, "cause=observed-classes") || !strings.Contains(log, "(replaces real") {
		t.Errorf("-jit-log has no replacement of fib's speculative entry:\n%s", log)
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
