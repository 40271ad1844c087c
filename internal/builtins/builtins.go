// Package builtins implements MATLAB's built-in functions and constants
// for the MaJIC reproduction. The same implementations back the
// interpreter and compiled code (via the GBUILTIN instruction), exactly
// as the original system links both against the MATLAB C library.
package builtins

import (
	"io"
	"sort"
	"sync"

	"repro/internal/mat"
)

// Context carries the per-engine state builtins need: the deterministic
// random number generator and the output writer. Both the interpreter
// and the VM thread the same Context through, so rand sequences and
// printed output are identical across execution tiers.
type Context struct {
	RNG *RNG
	Out io.Writer
}

// NewContext returns a Context with a deterministically seeded RNG and
// discarded output.
func NewContext() *Context {
	return &Context{RNG: NewRNG(0x9E3779B97F4A7C15), Out: io.Discard}
}

// Impl is the implementation of one builtin: args are the actual
// parameters, nout the number of requested outputs (>= 1 in expression
// contexts). It returns nout values (or fewer if the builtin cannot).
type Impl func(ctx *Context, args []*mat.Value, nout int) ([]*mat.Value, error)

// Builtin describes one builtin function.
type Builtin struct {
	Name    string
	MinArgs int
	MaxArgs int // -1 = variadic
	MaxOuts int
	Impl    Impl
}

var registry = map[string]*Builtin{}

func register(name string, minArgs, maxArgs, maxOuts int, impl Impl) {
	registry[name] = &Builtin{Name: name, MinArgs: minArgs, MaxArgs: maxArgs, MaxOuts: maxOuts, Impl: impl}
}

// Lookup returns the builtin with the given name, or nil.
func Lookup(name string) *Builtin { return registry[name] }

// Effectful reports whether calling the named builtin does anything
// besides computing its results: the four builtins that write to
// Context.Out or draw from Context.RNG. A function that calls none of
// them (and touches no global) can be re-run without anyone noticing.
func Effectful(name string) bool {
	switch name {
	case "disp", "fprintf", "rand", "randn":
		return true
	}
	return false
}

// Names returns all registered builtin names, sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// sparseAware names the builtins whose implementations handle sparse
// (CSR) arguments directly — metadata queries that never touch the
// payload, the sparse constructors/converters, and diag (which has an
// O(nnz) extraction path). Every other builtin receives densified
// copies from Call, so implementations stay representation-oblivious.
// A name set (not a Builtin field) avoids init-order coupling between
// the per-file register calls.
var sparseAware = map[string]bool{
	"sparse": true, "full": true, "speye": true, "spdiags": true,
	"nnz": true, "issparse": true,
	"size": true, "length": true, "numel": true, "isempty": true,
	"isreal": true, "isscalar": true, "diag": true,
}

// Call invokes a builtin by pointer with argument-count validation.
func Call(ctx *Context, b *Builtin, args []*mat.Value, nout int) ([]*mat.Value, error) {
	if len(args) < b.MinArgs {
		return nil, mat.Errorf("%s: not enough input arguments", b.Name)
	}
	if b.MaxArgs >= 0 && len(args) > b.MaxArgs {
		return nil, mat.Errorf("%s: too many input arguments", b.Name)
	}
	if nout < 1 {
		nout = 1
	}
	if nout > b.MaxOuts {
		return nil, mat.Errorf("%s: too many output arguments", b.Name)
	}
	if !sparseAware[b.Name] {
		var copied []*mat.Value
		for i, a := range args {
			if a != nil && a.IsSparse() {
				d, err := a.Dense()
				if err != nil {
					return nil, err
				}
				if copied == nil {
					copied = append([]*mat.Value(nil), args...)
				}
				copied[i] = d
			}
		}
		if copied != nil {
			args = copied
		}
	}
	return b.Impl(ctx, args, nout)
}

// RNG is the engine's deterministic pseudo-random generator
// (xorshift64*), shared by rand and randn so that interpreter and
// compiled runs of the same program observe identical streams. A mutex
// makes the stream safe to draw from concurrent callers (the async
// compilation service allows concurrent Call on one engine); the
// single-threaded sequence is unchanged.
type RNG struct {
	mu    sync.Mutex
	state uint64
	// cached second normal deviate for Box-Muller
	haveGauss bool
	gauss     float64
}

// NewRNG returns an RNG with the given nonzero seed.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 1
	}
	return &RNG{state: seed}
}

// Seed resets the generator.
func (r *RNG) Seed(seed uint64) {
	if seed == 0 {
		seed = 1
	}
	r.mu.Lock()
	r.state = seed
	r.haveGauss = false
	r.mu.Unlock()
}

// uint64Locked advances the xorshift64* state; r.mu must be held.
func (r *RNG) uint64Locked() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

func (r *RNG) float64Locked() float64 {
	return float64(r.uint64Locked()>>11) / (1 << 53)
}

// Uint64 advances the xorshift64* state.
func (r *RNG) Uint64() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.uint64Locked()
}

// Float64 returns a uniform deviate in [0,1).
func (r *RNG) Float64() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.float64Locked()
}

// Normal returns a standard normal deviate (Box-Muller).
func (r *RNG) Normal() float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.haveGauss {
		r.haveGauss = false
		return r.gauss
	}
	var u, v, s float64
	for {
		u = 2*r.float64Locked() - 1
		v = 2*r.float64Locked() - 1
		s = u*u + v*v
		if s > 0 && s < 1 {
			break
		}
	}
	f := sqrtNeg2LogOverS(s)
	r.gauss = v * f
	r.haveGauss = true
	return u * f
}
