package core

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
