package main

import (
	_ "embed"
	"fmt"
	"math"

	"repro/internal/bench"
	"repro/internal/mat"
)

// program is one MATLAB function the ledger calls: a Table 1 benchmark
// or one of the three kernel programs defined beside this file.
type program struct {
	name   string
	fn     string
	source func(sz bench.Size) string
	args   func(sz bench.Size) []*mat.Value
}

// sized names a program at one of the size presets.
type sized struct {
	name string
	size bench.Size
}

// Sizes. A row's p10 only repeats on the reference box when the run
// collects a few hundred samples of it: the box is throttled to 30-50 %
// steal after a minute of load, and with the 20 samples per row that
// all-medium rounds leave, identical runs moved +-20 % (CALIBRATION.md).
// So each program runs at medium where its warm compiled call takes
// under about 15 ms there, and at small otherwise; a round then takes
// roughly 0.1 s and a run makes 200 or more.

// scalarSet is the loop- and recursion-bound part of Table 1: the VM,
// code quality and the call boundary do the work, kernels almost none.
var scalarSet = []sized{
	{"dirich", bench.Small}, {"finedif", bench.Small}, {"crnich", bench.Medium},
	{"icn", bench.Small}, {"orbec", bench.Small}, {"orbrk", bench.Small},
	{"fractal", bench.Small}, {"mandel", bench.Small}, {"galrkn", bench.Medium},
	{"adapt", bench.Medium}, {"fibonacci", bench.Medium}, {"ackermann", bench.Medium},
}

// kernelSet is the library-bound part of Table 1 plus the three added
// programs that reach blocked dgemm, fusion and CSR SpMV, which no
// Table 1 program does.
var kernelSet = []sized{
	{"cgopt", bench.Medium}, {"qmr", bench.Small}, {"sor", bench.Small}, {"mei", bench.Medium},
	{"matmul", bench.Medium}, {"elemchain", bench.Medium}, {"spcg", bench.Medium},
}

// serveSet is what the daemon's clients call (bench.ConcurrentSet: one
// recursive, one array-growing and three solver programs).
var serveSet = bench.ConcurrentSet

//go:embed programs/matmul.m
var matmulSrc string

//go:embed programs/elemchain.m
var elemchainSrc string

//go:embed programs/spcg.m
var spcgSrc string

func constSource(src string) func(bench.Size) string {
	return func(bench.Size) string { return src }
}

// sizeOf picks the small or the medium value (the ledger never runs the
// paper preset: its interpreter rows take minutes).
func sizeOf[T any](sz bench.Size, small, medium T) T {
	if sz == bench.Small {
		return small
	}
	return medium
}

var extraPrograms = []program{
	{
		name: "matmul", fn: "matmul", source: constSource(matmulSrc),
		args: func(sz bench.Size) []*mat.Value {
			n := sizeOf(sz, 48, 256)
			return []*mat.Value{waveMatrix(n, n, 1), waveMatrix(n, n, 2)}
		},
	},
	{
		name: "elemchain", fn: "elemchain", source: constSource(elemchainSrc),
		args: func(sz bench.Size) []*mat.Value {
			n := sizeOf(sz, 2000, 200000)
			return []*mat.Value{waveMatrix(n, 1, 3), waveMatrix(n, 1, 4), waveMatrix(n, 1, 5)}
		},
	},
	{
		name: "spcg", fn: "spcg", source: constSource(spcgSrc),
		args: func(sz bench.Size) []*mat.Value {
			n := sizeOf(sz, 500, 10000)
			iters := sizeOf(sz, 10, 15)
			return []*mat.Value{pentaOperator(n), waveMatrix(n, 1, 6), mat.Scalar(float64(iters))}
		},
	},
}

// lookupProgram resolves a name against Table 1 first, then the kernel
// programs.
func lookupProgram(name string) (program, error) {
	if b := bench.ByName(name); b != nil {
		return program{name: b.Name, fn: b.Fn, source: b.Source, args: b.Args}, nil
	}
	for _, p := range extraPrograms {
		if p.name == name {
			return p, nil
		}
	}
	return program{}, fmt.Errorf("unknown program %q", name)
}

func lookupPrograms(names []string) ([]program, error) {
	out := make([]program, 0, len(names))
	for _, n := range names {
		p, err := lookupProgram(n)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func table1Names() []string {
	var out []string
	for _, b := range bench.All() {
		out = append(out, b.Name)
	}
	return out
}

// waveMatrix fills a rows x cols matrix with a fixed, strictly positive
// pattern in [0.5, 1.5]; phase separates the operands. Inputs are fixed
// rather than seeded because the committed reference outputs depend on
// them; the seed drives visiting order, variants and the request mix.
func waveMatrix(rows, cols int, phase float64) *mat.Value {
	v := mat.New(rows, cols)
	re := v.Re()
	for i := range re {
		re[i] = 1 + 0.5*math.Sin(0.37*float64(i)+phase)
	}
	return v
}

// pentaOperator is the pentadiagonal SPD operator [-1 -1 6 -1 -1] in CSR
// form: 5 stored entries per row, the shape of a 1-D fourth-order
// stencil.
func pentaOperator(n int) *mat.Value {
	e := make([]float64, n)
	d := make([]float64, n)
	for i := range e {
		e[i], d[i] = -1, 6
	}
	a, err := mat.SparseFromDiags(n, n, [][]float64{e, e, d, e, e}, []int{-2, -1, 0, 1, 2})
	if err != nil {
		panic(fmt.Sprintf("pentaOperator(%d): %v", n, err)) // distinct offsets, full-length columns
	}
	return a
}
