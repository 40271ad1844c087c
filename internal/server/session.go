package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cancel"
	"repro/internal/core"
	"repro/internal/mat"
)

// captureOut is a session engine's swappable output sink. The engine's
// Out writer is fixed at construction, so the session points it here
// and retargets per evaluation (evals on one session are serialized by
// the session mutex; the internal lock only guards against a late write
// from an interrupted eval racing the next retarget).
type captureOut struct {
	mu sync.Mutex
	w  io.Writer
}

func (c *captureOut) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.w == nil {
		return len(p), nil
	}
	return c.w.Write(p)
}

func (c *captureOut) set(w io.Writer) {
	c.mu.Lock()
	c.w = w
	c.mu.Unlock()
}

// session is one client workspace: a private engine attached to the
// server's shared library, plus the bookkeeping for deadlines and idle
// eviction.
type session struct {
	id  string
	eng *core.Engine
	out *captureOut

	// mu serializes evaluations — one MATLAB workspace, like one
	// MATLAB session. Concurrency comes from many sessions, not from
	// parallel evals in one.
	mu sync.Mutex

	// watchMu orders the deadline watchdog against eval completion:
	// the timer callback checks gen under it before raising the flag,
	// and the eval epilogue bumps gen and clears the flag under it, so
	// a timer firing exactly at completion can never leak a raised
	// flag into the next evaluation.
	watchMu sync.Mutex
	gen     uint64

	lastUsed atomic.Int64 // unix nanos of the last touch
	closed   atomic.Bool
}

func newSession(id string, opts core.Options, lib *core.Library) *session {
	out := &captureOut{}
	opts.Out = out
	opts.Library = lib
	return &session{id: id, eng: core.New(opts), out: out, gen: 1}
}

func (s *session) touch() { s.lastUsed.Store(time.Now().UnixNano()) }

func (s *session) idleSince(now time.Time) time.Duration {
	return now.Sub(time.Unix(0, s.lastUsed.Load()))
}

// errSessionClosed reports an eval against a destroyed session (the
// request lost the race with DELETE or the idle reaper).
var errSessionClosed = errors.New("session closed")

// eval runs src in the session workspace with a cooperative deadline
// (0 = none). It returns the captured output, whether the deadline
// killed the program, and the evaluation error.
func (s *session) eval(src string, deadline time.Duration) (output string, timedOut bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return "", false, errSessionClosed
	}
	s.touch()

	var buf bytes.Buffer
	s.out.set(&buf)
	defer s.out.set(nil)

	var timer *time.Timer
	var fired atomic.Bool
	if deadline > 0 {
		myGen := s.gen
		timer = time.AfterFunc(deadline, func() {
			s.watchMu.Lock()
			defer s.watchMu.Unlock()
			if s.gen == myGen {
				fired.Store(true)
				s.eng.Interrupt()
			}
		})
	}

	err = s.eng.EvalString(src)

	if timer != nil {
		timer.Stop()
	}
	s.watchMu.Lock()
	s.gen++
	s.eng.ResetInterrupt()
	s.watchMu.Unlock()

	s.touch()
	if err != nil && errors.Is(err, cancel.ErrInterrupted) && fired.Load() {
		return buf.String(), true, err
	}
	return buf.String(), false, err
}

// workspaceGet reads a variable from the session workspace.
func (s *session) workspaceGet(name string) (v *workspaceValue, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, false
	}
	s.touch()
	mv, ok := s.eng.Workspace(name)
	if !ok {
		return nil, false
	}
	wv := &workspaceValue{
		Name: name,
		Rows: mv.Rows(),
		Cols: mv.Cols(),
		Kind: mv.Kind().String(),
	}
	switch {
	case mv.Kind().IsNumeric():
		wv.Re = append([]float64(nil), mv.Re()...)
		if im := mv.Im(); im != nil {
			wv.Im = append([]float64(nil), im...)
		}
	default: // char
		wv.Text = mv.Text()
	}
	return wv, true
}

// workspaceSet binds a variable in the session workspace from its JSON
// shape. The load generator uses this to install benchmark arguments
// without serializing large matrices into MATLAB source.
func (s *session) workspaceSet(name string, wv *workspaceValue) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return errSessionClosed
	}
	s.touch()
	var v *mat.Value
	if wv.Kind == "char" {
		v = mat.FromString(wv.Text)
	} else {
		n := wv.Rows * wv.Cols
		if wv.Rows < 0 || wv.Cols < 0 || len(wv.Re) != n {
			return fmt.Errorf("value shape %dx%d needs %d elements, got %d", wv.Rows, wv.Cols, n, len(wv.Re))
		}
		kind := mat.Real
		var im []float64
		if len(wv.Im) > 0 {
			if len(wv.Im) != n {
				return fmt.Errorf("imaginary part has %d elements, want %d", len(wv.Im), n)
			}
			kind = mat.Complex
			im = append([]float64(nil), wv.Im...)
		}
		v = mat.FromColMajor(kind, wv.Rows, wv.Cols, append([]float64(nil), wv.Re...), im)
	}
	s.eng.SetWorkspace(name, v)
	return nil
}

// close marks the session dead and interrupts any in-flight eval. It
// does not wait for the eval to observe the interrupt — the admission
// semaphore and http draining bound that. The engine has nothing of its
// own to shut down: its library is the server's.
func (s *session) close() {
	if s.closed.Swap(true) {
		return
	}
	s.eng.Interrupt()
}

// workspaceValue is the JSON shape of a workspace variable.
type workspaceValue struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Kind string    `json:"kind"`
	Re   []float64 `json:"re,omitempty"`
	Im   []float64 `json:"im,omitempty"`
	Text string    `json:"text,omitempty"`
}
