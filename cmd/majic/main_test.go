package main

import "testing"

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
