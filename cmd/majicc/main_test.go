package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
)

// majicc runs the command over src written to a file and returns its exit
// status and output.
func majicc(t *testing.T, src string, args ...string) (int, string, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "f.m")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	code := run(append(args, path), &stdout, &stderr)
	return code, stdout.String(), stderr.String()
}

// TestProdTierFusesAxpy: the daemon's default configuration is a -tier
// value, and its dump is the tier-up's code, fused kernels included.
func TestProdTierFusesAxpy(t *testing.T) {
	const src = "function r = axpy(x, p, alpha)\n  r = x - alpha*p;\nend\n"
	code, out, errs := majicc(t, src, "-dump=asm", "-tier=prod", "-sig=matrix,matrix,real")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	if !strings.Contains(out, "vfused") {
		t.Errorf("-tier=prod prints no fused kernel:\n%s", out)
	}
}

// TestAsmInlinesHelpers: the default dump is the jit engine's code, which
// inlines a one-line helper, so the loop keeps its scalars in registers:
// no user call, no box, no generic operator.
func TestAsmInlinesHelpers(t *testing.T) {
	const src = `function s = loop(n)
  s = 0;
  for i = 1:n
    s = s + sq(i);
  end
end
function y = sq(x)
  y = x * x;
end
`
	code, out, errs := majicc(t, src, "-dump=asm", "-sig=int")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errs)
	}
	for _, op := range []string{"call", "box", "gbin"} {
		if strings.Contains(out, op) {
			t.Errorf("the loop's code has %s:\n%s", op, out)
		}
	}
}

// TestInterpTierIsAFlagError: an interp engine compiles nothing, so there
// is nothing to print.
func TestInterpTierIsAFlagError(t *testing.T) {
	if code, _, _ := majicc(t, "function y = f(x)\n  y = x;\nend\n", "-tier=interp"); code != 2 {
		t.Errorf("-tier=interp exits %d, want 2", code)
	}
}

// TestEveryDumpOnTable1: every dump kind prints something for a Table 1
// program, adapt, whose entry function calls a helper.
func TestEveryDumpOnTable1(t *testing.T) {
	b := bench.ByName("adapt")
	for _, dump := range dumps {
		code, out, errs := majicc(t, b.Source(bench.Small), "-dump="+dump)
		if code != 0 || out == "" {
			t.Errorf("-dump=%s: exit %d, %d bytes out: %s", dump, code, len(out), errs)
		}
	}
}
