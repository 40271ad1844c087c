package server

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"strconv"
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

	// The epilogue runs on every exit, a panic in the engine included, so
	// no timer of this eval and no raised flag reaches the next one.
	defer func() {
		s.watchMu.Lock()
		s.gen++
		s.eng.ResetInterrupt()
		s.watchMu.Unlock()
		s.touch()
	}()
	var fired atomic.Bool
	if deadline > 0 {
		myGen := s.gen
		timer := time.AfterFunc(deadline, func() {
			s.watchMu.Lock()
			defer s.watchMu.Unlock()
			if s.gen == myGen {
				fired.Store(true)
				s.eng.Interrupt()
			}
		})
		defer timer.Stop()
	}

	err = s.eng.EvalString(src)
	return buf.String(), errors.Is(err, cancel.ErrInterrupted) && fired.Load(), err
}

// workspaceGet encodes a variable of the session workspace into buf,
// under the session lock and straight from the value's own slices. It
// reports whether the variable exists, and a *refusal when the wire
// cannot carry the value (an element that is NaN or ±Inf, or a sparse
// value), in which case buf holds nothing.
func (s *session) workspaceGet(name string, buf *bytes.Buffer) (found bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return false, nil
	}
	s.touch()
	mv, ok := s.eng.Workspace(name)
	if !ok {
		return false, nil
	}
	if mv.IsSparse() {
		return true, &refusal{kind: "sparse", msg: fmt.Sprintf("%s is sparse, and the workspace wire carries dense values only: bind full(%s) to a name and GET that", name, name)}
	}
	kind := mv.Kind()
	if kind == mat.Int {
		// An int is a double the engine holds as an integer, which
		// depends on the tier that made it: the wire says double.
		kind = mat.Real
	}
	wv := workspaceValue{
		Name: name,
		Rows: mv.Rows(),
		Cols: mv.Cols(),
		Kind: kind.String(),
	}
	if mv.Kind().IsNumeric() {
		wv.Re, wv.Im = mv.Re(), mv.Im()
		if err := cmp.Or(nonFinite(name, "re", wv.Re), nonFinite(name, "im", wv.Im)); err != nil {
			return true, err
		}
	} else {
		wv.Text = mv.Text()
	}
	return true, json.NewEncoder(buf).Encode(&wv)
}

// refusal is a workspace value the wire cannot carry, with the
// errorBody kind that names why.
type refusal struct{ kind, msg string }

func (r *refusal) Error() string { return r.msg }

// nonFinite names the first element of a part that JSON cannot carry.
func nonFinite(name, part string, xs []float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return &refusal{kind: "non_finite", msg: fmt.Sprintf("%s: %s[%d] is %v, and a JSON number is finite", name, part, i, x)}
		}
	}
	return nil
}

// workspaceSet binds a variable in the session workspace from its JSON
// shape, taking the slices wv decoded into: the request owns them and
// keeps no other reference. The load generator uses this to install
// benchmark arguments without serializing large matrices into MATLAB
// source.
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
		if wv.Rows < 0 || wv.Cols < 0 || wv.Cols > 0 && wv.Rows > math.MaxInt/wv.Cols {
			return fmt.Errorf("value shape %dx%d is negative or its element count overflows", wv.Rows, wv.Cols)
		}
		n := wv.Rows * wv.Cols
		if len(wv.Re) != n {
			return fmt.Errorf("value shape %dx%d needs %d elements, got %d", wv.Rows, wv.Cols, n, len(wv.Re))
		}
		kind := mat.Real
		var im []float64
		switch {
		case wv.Kind == "logical":
			if len(wv.Im) > 0 {
				return fmt.Errorf("a logical has no imaginary part")
			}
			for i, x := range wv.Re {
				if x != 1 && math.Float64bits(x) != 0 {
					return fmt.Errorf("re[%d] is %v, and a logical is 0 or 1", i, x)
				}
			}
			kind = mat.Bool
		case len(wv.Im) > 0:
			if len(wv.Im) != n {
				return fmt.Errorf("imaginary part has %d elements, want %d", len(wv.Im), n)
			}
			kind = mat.Complex
			im = wv.Im
		}
		v = mat.FromColMajor(kind, wv.Rows, wv.Cols, wv.Re, im)
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
	Name string `json:"name"`
	Rows int    `json:"rows"`
	Cols int    `json:"cols"`
	Kind string `json:"kind"`
	Re   floats `json:"re,omitempty"`
	Im   floats `json:"im,omitempty"`
	Text string `json:"text,omitempty"`
}

// floats is a value's re or im part. It encodes as []float64 does, and
// decodes an array that encoding/json has already validated in one pass
// into a slice of exactly the element count, each number parsed by
// strconv.ParseFloat as encoding/json parses it, so the bits are
// encoding/json's. A null element is 0. Any other element that is not a
// number, and a number out of range, is an error.
type floats []float64

func (f *floats) UnmarshalJSON(data []byte) error {
	if *f != nil {
		// A repeated key: encoding/json decodes it over the earlier
		// array, where a null element keeps what that array held.
		return json.Unmarshal(data, (*[]float64)(f))
	}
	if string(data) == "null" {
		return nil
	}
	if len(data) < 2 || data[0] != '[' {
		return errors.New("want an array of numbers")
	}
	elems := data[1 : len(data)-1]
	if len(bytes.TrimSpace(elems)) == 0 {
		*f = floats{}
		return nil
	}
	// Numbers and nulls hold no comma, so the count is exact for every
	// array that decodes.
	out := make(floats, 0, bytes.Count(elems, []byte{','})+1)
	for len(out) < cap(out) {
		el := elems
		if i := bytes.IndexByte(elems, ','); i >= 0 {
			el, elems = elems[:i], elems[i+1:]
		}
		el = bytes.TrimSpace(el)
		switch {
		case string(el) == "null":
			out = append(out, 0)
		case len(el) > 0 && (el[0] == '-' || '0' <= el[0] && el[0] <= '9'):
			x, err := strconv.ParseFloat(string(el), 64)
			if err != nil {
				return fmt.Errorf("element %d: %w", len(out), err)
			}
			out = append(out, x)
		default:
			return fmt.Errorf("element %d is not a number", len(out))
		}
	}
	*f = out
	return nil
}
