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
// Under prod the recursive fib compiles on its first call and is never
// replaced; the loop-free twice is parked, and its placeholder is.
func TestJitLogShowsReplacedSpeculation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "fib.m")
	src := "function y = fib(n)\n  if n < 2\n    y = n;\n  else\n    y = fib(n-1) + fib(n-2);\n  end\nend\n" +
		"function y = twice(n)\n  y = 2*n;\nend\n"
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	// Every tier-up is a replacement journaled in one form: the speculative
	// real entry replaced for the integers its calls bring, and under prod
	// the placeholder the first miss parked at the widened signature.
	for _, row := range []struct{ tier, promoted, cause, replaces, never string }{
		{"spec", "promotion fib sig=int", "cause=observed-classes", "(replaces real", ""},
		{"prod", "promotion twice sig=int", "cause=hot-signature", "(replaces int|<1,1>|<1,1>|⊤", "promotion fib"},
	} {
		t.Run(row.tier, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			code := run([]string{"-tier=" + row.tier, "-jit-log", "-e", "for k = 1:10, x = fib(12); z = twice(k); end, x", path}, strings.NewReader(""), &stdout, &stderr)
			if code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			if !strings.Contains(stdout.String(), "144") {
				t.Errorf("stdout %q, want x = 144", stdout.String())
			}
			log := stderr.String()
			if !strings.Contains(log, row.promoted) || !strings.Contains(log, row.cause) || !strings.Contains(log, row.replaces) {
				t.Errorf("-jit-log has no %q replacing its %s entry:\n%s", row.promoted, row.tier, log)
			}
			if row.never != "" && strings.Contains(log, row.never) {
				t.Errorf("-jit-log has %q, but a recursive function compiles on its first call:\n%s", row.never, log)
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
		"for k = 1:3\n  x(end+1) = k;\n":        true,
		"for k = 1:3\n  x(end+1) = k;\nend\n":   false,
		"if a\n  disp('end')\n":                 true,
		"y = [v(end) 1];\n":                     false,
	}
	for src, want := range cases {
		if got := needsMore(src); got != want {
			t.Errorf("needsMore(%q) = %v, want %v", src, got, want)
		}
	}
}

// TestUnknownFlagValueExits2: a -tier or -platform value the command
// does not know is a usage error, never a silent default.
func TestUnknownFlagValueExits2(t *testing.T) {
	for _, row := range []struct{ flag, msg string }{
		{"-tier=bogus", `unknown tier "bogus"`},
		{"-platform=mipz", `unknown platform "mipz"`},
	} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{row.flag, "-e", "x = 1"}, strings.NewReader(""), &stdout, &stderr); code != 2 {
			t.Fatalf("%s: exit %d, want 2 (stderr %q)", row.flag, code, stderr.String())
		}
		if !strings.Contains(stderr.String(), row.msg) || stdout.Len() != 0 {
			t.Errorf("%s: stdout %q, stderr %q", row.flag, stdout.String(), stderr.String())
		}
	}
}
