package core

import (
	"regexp"
	"strings"
)

// Widen and SameBitsAnyKind serve the external tests.
var (
	Widen           = widen
	SameBitsAnyKind = sameBitsAnyKind
)

// loopHeader finds a for or while statement at the start of a line, and
// fnHeader the name a function header defines.
var (
	loopHeader = regexp.MustCompile(`(?m)^\s*(for|while)\b`)
	fnHeader   = regexp.MustCompile(`^function\s+(?:(?:\[[^\]]*\]|\w+)\s*=\s*)?(\w+)`)
)

// FirstFunctionLoops reads off the source text whether the first
// function of src holds a for or while loop or names itself in its body:
// what a tiered engine's first call of it must do (compile first, not
// park), decided without asking the engine.
func FirstFunctionLoops(src string) bool {
	body := src[strings.Index(src, "function "):]
	if end := strings.Index(body[1:], "\nfunction "); end >= 0 {
		body = body[:end+1]
	}
	if loopHeader.MatchString(body) {
		return true
	}
	header, rest, _ := strings.Cut(body, "\n")
	self := regexp.MustCompile(`\b` + fnHeader.FindStringSubmatch(header)[1] + `\b`)
	return self.MatchString(rest)
}

// HoldPool occupies one worker of the library's compile pool until the
// returned release is called, so that a test can land a redefinition
// while a job it submitted waits for the worker. The library must own a
// pool.
func (l *Library) HoldPool() (release func()) {
	started, done := make(chan struct{}), make(chan struct{})
	l.submit(true, func() string { return "hold" }, nil, func() error {
		close(started)
		<-done
		return nil
	})
	<-started
	return func() { close(done) }
}

// DiffSource is the source of the differential program of that name.
func DiffSource(name string) string {
	for _, p := range diffPrograms {
		if p.name == name {
			return p.src
		}
	}
	panic("no differential program " + name)
}
