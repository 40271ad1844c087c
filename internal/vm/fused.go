package vm

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/builtins"
	"repro/internal/ir"
	"repro/internal/mat"
	"repro/internal/parallel"
)

// The kernel runs blocked: the micro-op program is dispatched once per
// block of fuseBlock elements, and each micro-op is one tight float64
// loop over a cache-resident chunk. That keeps dispatch cost at
// ops x (n / fuseBlock) instead of ops x n, while intermediates stay in
// L1 instead of becoming full-size temporaries.
const fuseBlock = mat.KernelBlock

// fuseGrainBlocks is the minimum number of blocks per parallel chunk
// (~16k elements); kernels smaller than that run inline on the caller.
const fuseGrainBlocks = 32

// fuseScratch holds one intermediate chunk per postfix stack slot. The
// stack is never deeper than the leaf count, which codegen caps at
// MaxFuseOperands.
type fuseScratch [ir.MaxFuseOperands][fuseBlock]float64

var fuseScratchPool = sync.Pool{New: func() any { return new(fuseScratch) }}

// fuseKernel maps a binary micro-op to its entry in mat's kernel table.
var fuseKernel = [...]mat.ElemOp{ir.FuseAdd: mat.KAdd, ir.FuseSub: mat.KSub, ir.FuseMul: mat.KMul, ir.FuseDiv: mat.KDiv, ir.FusePow: mat.KPow}

// fusedExec executes one OpVFused kernel: a postfix micro-op program
// over real operands, run as a single loop that writes each output
// element once, with no intermediate arrays. The aux layout is
//
//	[nv, vregs..., nslots, nops, (code, arg) x nops]
//
// Semantics match the generic one-instruction-per-operator chain
// bit-for-bit: shapes are checked in the same innermost-first order
// with the same errors, per-element arithmetic applies the identical
// float64 operations in the identical order, and the result kind is
// reproduced by replaying the operators' promotion rules. Whenever the
// fast path cannot preserve those semantics — an operand is complex or
// undefined, or an element would promote to complex (negative base to
// a fractional power, sqrt or log of a negative) — the whole kernel falls
// back to interpreting the micro-ops over boxed values through the
// same mat/builtins entry points the generic instructions call.
func fusedExec(c *Compiled, ctx *builtins.Context, aux []int32, at, dst int, consumed uint32, V []*mat.Value, slots *[ir.MaxFuseOperands]float64) error {
	nv := int(aux[at])
	vregs := aux[at+1 : at+1+nv]
	nops := int(aux[at+2+nv])
	prog := aux[at+3+nv : at+3+nv+2*nops]

	// Operand kinds are read here, once: the destination chosen below
	// may be an operand, whose kind tag is then the result's.
	var ops [ir.MaxFuseOperands]*mat.Value
	var kinds [ir.MaxFuseOperands]mat.Kind
	boxed := false
	for k := 0; k < nv; k++ {
		v := V[vregs[k]]
		ops[k] = v
		if v == nil || v.Im() != nil || v.IsSparse() {
			// Sparse operands have no dense payload to stream; the boxed
			// interpreter routes them through the representation-aware
			// mat entry points.
			boxed = true
			continue
		}
		kinds[k] = v.Kind()
	}
	if boxed {
		return fusedBoxed(c, ctx, prog, ops[:nv], slots, dst, V)
	}

	// Shape simulation, innermost-first like the generic chain, with
	// binShape's broadcasting rules and error text.
	var shR, shC [ir.MaxFuseOps]int
	sp := 0
	for j := 0; j < nops; j++ {
		switch prog[2*j] {
		case ir.FuseLoadV:
			v := ops[prog[2*j+1]]
			shR[sp], shC[sp] = v.Rows(), v.Cols()
			sp++
		case ir.FuseLoadSF, ir.FuseLoadSI:
			shR[sp], shC[sp] = 1, 1
			sp++
		case ir.FuseNeg, ir.FuseMath:
			// shape unchanged
		default: // binary
			xr, xc := shR[sp-2], shC[sp-2]
			yr, yc := shR[sp-1], shC[sp-1]
			switch {
			case xr == 1 && xc == 1:
				shR[sp-2], shC[sp-2] = yr, yc
			case yr == 1 && yc == 1:
				// keep x's shape
			case xr == yr && xc == yc:
				// same shape
			default:
				return mat.Errorf("matrix dimensions must agree: %dx%d vs %dx%d", xr, xc, yr, yc)
			}
			sp--
		}
	}
	rows, cols := shR[0], shC[0]
	n := rows * cols

	// canAbort: the program contains an op whose real path can promote
	// to complex mid-loop (.^ with a negative base and fractional
	// exponent, sqrt of a negative: ElemFn.Promotes). needAcc: which binary ops might
	// produce an Int/Bool-kinded result and so must track whether every
	// element stays integral — the same in-loop test mat.elementwise
	// applies. maybe[] is a conservative "could be Int or Bool" lattice
	// over the postfix stack; tracking an accumulator that turns out
	// unnecessary is harmless because the final kind replay uses exact
	// kinds.
	canAbort := false
	var maybe [ir.MaxFuseOps]bool
	var needAcc [ir.MaxFuseOps]bool
	sp = 0
	for j := 0; j < nops; j++ {
		switch prog[2*j] {
		case ir.FuseLoadV:
			k := kinds[prog[2*j+1]]
			maybe[sp] = k == mat.Int || k == mat.Bool
			sp++
		case ir.FuseLoadSF:
			maybe[sp] = false
			sp++
		case ir.FuseLoadSI:
			maybe[sp] = true
			sp++
		case ir.FuseNeg:
			// numKind keeps Int, turns Bool into Real: leave the flag.
		case ir.FuseMath:
			maybe[sp-1] = false
			if c.elemFns[prog[2*j+1]].Promotes != nil {
				canAbort = true
			}
		default:
			needAcc[j] = maybe[sp-2] && maybe[sp-1]
			maybe[sp-2] = needAcc[j]
			sp--
			if prog[2*j] == ir.FusePow {
				canAbort = true
			}
		}
	}

	// Destination (DESIGN §10): the displaced value's buffer when this
	// frame is its sole owner, else a consumed operand's. Writing in
	// place over an operand is safe for a pure elementwise loop (element
	// i is fully read before it is written) — except when the kernel can
	// abort, because the boxed fallback must recompute from intact
	// operands.
	out := mat.Donors{Dst: V[dst], Consumed: consumed}.NewReal(rows, cols, !canAbort, ops[:nv]...)
	outRe := out.Re()

	var data [ir.MaxFuseOperands][]float64
	var stride [ir.MaxFuseOperands]int
	for k := 0; k < nv; k++ {
		data[k] = ops[k].Re()
		if !ops[k].IsScalar() {
			stride[k] = 1
		}
	}

	var allInt [ir.MaxFuseOps]bool
	for j := 0; j < nops; j++ {
		allInt[j] = true
	}

	// Blocked interpretation, chunk-parallel over block ranges. Vector
	// loads alias the source arrays (no copy), scalar stack entries live
	// in sval, intermediate chunks in a per-worker pooled scratch arena,
	// and the root micro-op writes its chunk straight into the
	// destination. Element values are identical to per-element (and so
	// to serial) evaluation because elementwise ops are independent
	// across elements and each block is owned by exactly one worker —
	// writing in place stays safe in parallel because every micro-op
	// reads and writes only its own block's index range. On abort the
	// fallback discards the partial destination, so the abort point —
	// and which other workers' blocks completed — is immaterial; the
	// per-worker integrality flags AND-merge, which is order-
	// independent. Threads == 1 runs the block loop inline, exactly the
	// serial code path.
	nblocks := (n + fuseBlock - 1) / fuseBlock
	aborted := false
	if nblocks <= fuseGrainBlocks || parallel.DefaultThreads() == 1 {
		// Serial: interpret every block inline on this goroutine. This
		// branch must not touch the parallel dispatch — its closure
		// captures would heap-allocate per statement, and the fused alloc
		// budget is one result buffer.
		var abort atomic.Bool
		fuseRunRange(c, prog, nops, n, 0, nblocks, &data, &stride, slots, &needAcc, &allInt, outRe, &abort)
		aborted = abort.Load()
	} else {
		aborted = fuseRunParallel(c, prog, nops, n, nblocks, data, stride, *slots, needAcc, &allInt, outRe)
	}
	if aborted {
		// out is either fresh or the (dead) displaced value, never an
		// operand; drop it and redo the whole statement over boxed values.
		return fusedBoxed(c, ctx, prog, ops[:nv], slots, dst, V)
	}

	// Kind replay: apply each operator's exact promotion rule, using
	// the integrality accumulators where the generic elementwise loop
	// would have scanned.
	var ks [ir.MaxFuseOps]mat.Kind
	sp = 0
	for j := 0; j < nops; j++ {
		switch prog[2*j] {
		case ir.FuseLoadV:
			ks[sp] = kinds[prog[2*j+1]]
			sp++
		case ir.FuseLoadSF:
			ks[sp] = mat.Real
			sp++
		case ir.FuseLoadSI:
			ks[sp] = mat.Int
			sp++
		case ir.FuseNeg:
			if ks[sp-1] == mat.Char || ks[sp-1] == mat.Bool {
				ks[sp-1] = mat.Real
			}
		case ir.FuseMath:
			ks[sp-1] = mat.Real
		default:
			k := mat.PromoteKind(ks[sp-2], ks[sp-1])
			if k == mat.Int || k == mat.Bool {
				if allInt[j] {
					k = mat.Int
				} else {
					k = mat.Real
				}
			}
			ks[sp-2] = k
			sp--
		}
	}
	out.SetNumericKind(ks[0])

	// A result built in a consumed operand is that operand: its register
	// lets go, or two registers would own one value.
	for k := 0; k < nv; k++ {
		if ops[k] == out {
			V[vregs[k]] = nil
		}
	}
	V[dst] = out
	return nil
}

// fuseRunRange interprets blocks [blo, bhi) of the fused micro-op
// program: the serial engine for one worker's contiguous block range.
// It mutates only localInt, abort, the scratch chunks it draws, and the
// [blo*fuseBlock, bhi*fuseBlock) range of outRe, so disjoint ranges run
// concurrently; none of the pointer arguments are retained.
func fuseRunRange(c *Compiled, prog []int32, nops, n, blo, bhi int, data *[ir.MaxFuseOperands][]float64, stride *[ir.MaxFuseOperands]int, slots *[ir.MaxFuseOperands]float64, needAcc, localInt *[ir.MaxFuseOps]bool, outRe []float64, abort *atomic.Bool) {
	// The scratch row lives in this frame, and clearing it is the cost:
	// none for load, load, operator (no intermediate), a short one for
	// vectors as small as qmr's.
	switch {
	case nops <= 3:
		fuseRunBlocks(c, prog, nops, n, blo, bhi, data, stride, slots, needAcc, localInt, outRe, abort, nil)
	case n <= fuseBlock/8:
		var row [fuseBlock / 8]float64
		fuseRunBlocks(c, prog, nops, n, blo, bhi, data, stride, slots, needAcc, localInt, outRe, abort, row[:])
	default:
		var row [fuseBlock]float64
		fuseRunBlocks(c, prog, nops, n, blo, bhi, data, stride, slots, needAcc, localInt, outRe, abort, row[:])
	}
}

// fuseRunBlocks is fuseRunRange's block loop; row, when not nil, is a
// scratch row of min(n, fuseBlock) elements in the caller's frame.
func fuseRunBlocks(c *Compiled, prog []int32, nops, n, blo, bhi int, data *[ir.MaxFuseOperands][]float64, stride *[ir.MaxFuseOperands]int, slots *[ir.MaxFuseOperands]float64, needAcc, localInt *[ir.MaxFuseOps]bool, outRe []float64, abort *atomic.Bool, row []float64) {
	var vbuf [ir.MaxFuseOperands][]float64 // nil => scalar entry in sval
	var sval [ir.MaxFuseOperands]float64
	// block is where micro-op j leaves a vector result: the destination
	// itself for the root, a scratch row for an intermediate. The first
	// stack slot that holds an intermediate gets the caller's row; the
	// pooled arena is drawn only when a second slot is live beside it, so
	// one-intermediate kernels (x ± alpha*p, a./(b + 2)) never visit the
	// pool.
	rowSlot := -1
	var scr *fuseScratch
	block := func(j, slot, base, bs int) []float64 {
		if j == nops-1 {
			return outRe[base : base+bs]
		}
		if row != nil && (rowSlot < 0 || rowSlot == slot) {
			rowSlot = slot
			return row[:bs]
		}
		if scr == nil {
			scr = fuseScratchPool.Get().(*fuseScratch)
		}
		return scr[slot][:bs]
	}
blocks:
	for bi := blo; bi < bhi; bi++ {
		if abort.Load() {
			break
		}
		base := bi * fuseBlock
		bs := n - base
		if bs > fuseBlock {
			bs = fuseBlock
		}
		sp := 0
		for j := 0; j < nops; j++ {
			arg := prog[2*j+1]
			switch prog[2*j] {
			case ir.FuseLoadV:
				if stride[arg] == 0 {
					vbuf[sp], sval[sp] = nil, data[arg][0]
				} else {
					vbuf[sp] = data[arg][base : base+bs]
				}
				sp++
				continue
			case ir.FuseLoadSF, ir.FuseLoadSI:
				vbuf[sp], sval[sp] = nil, slots[arg]
				sp++
				continue
			case ir.FuseNeg:
				x := vbuf[sp-1]
				if x == nil {
					sval[sp-1] = -sval[sp-1]
					continue
				}
				o := block(j, sp-1, base, bs)
				mat.NegKernel(o, x)
				vbuf[sp-1] = o
				continue
			case ir.FuseMath:
				fn, promotes := c.mathFns[arg], c.elemFns[arg].Promotes
				x := vbuf[sp-1]
				if x == nil {
					if promotes != nil && promotes(sval[sp-1]) {
						abort.Store(true)
						break blocks
					}
					sval[sp-1] = fn(sval[sp-1])
					continue
				}
				o := block(j, sp-1, base, bs)
				if promotes != nil {
					for i := 0; i < bs; i++ {
						if promotes(x[i]) {
							abort.Store(true)
							break blocks
						}
						o[i] = fn(x[i])
					}
				} else {
					for i := 0; i < bs; i++ {
						o[i] = fn(x[i])
					}
				}
				vbuf[sp-1] = o
				continue
			}
			// binary micro-op: pop two, push one. The arithmetic is mat's
			// kernel table — the loops the generic operators run.
			op := fuseKernel[prog[2*j]]
			x, y := vbuf[sp-2], vbuf[sp-1]
			xs, ys := sval[sp-2], sval[sp-1]
			sp--
			if op == mat.KPow && mat.PowPromotes(x, xs, y, ys) {
				abort.Store(true)
				break blocks
			}
			if x == nil && y == nil {
				z := op.Apply(xs, ys)
				if needAcc[j] && localInt[j] && (z != math.Trunc(z) || math.IsInf(z, 0)) {
					localInt[j] = false
				}
				vbuf[sp-1], sval[sp-1] = nil, z
				continue
			}
			o := block(j, sp-1, base, bs)
			mat.ElemKernel(op, o, x, xs, y, ys)
			if needAcc[j] && localInt[j] && !mat.ChunkAllInt(o) {
				localInt[j] = false
			}
			vbuf[sp-1] = o
		}
		if vbuf[0] == nil {
			// all-scalar program: the result is 1x1
			outRe[base] = sval[0]
		}
	}
	if scr != nil {
		fuseScratchPool.Put(scr)
	}
}

// fuseRunParallel fans the block range out over the worker pool. State
// arrives by value so nothing in the caller's frame is captured by the
// worker closure — only this function's copies escape, and only on
// this large-kernel path (the serial path allocates nothing).
func fuseRunParallel(c *Compiled, prog []int32, nops, n, nblocks int, data [ir.MaxFuseOperands][]float64, stride [ir.MaxFuseOperands]int, slots [ir.MaxFuseOperands]float64, needAcc [ir.MaxFuseOps]bool, allInt *[ir.MaxFuseOps]bool, outRe []float64) bool {
	var abort atomic.Bool
	var intMu sync.Mutex
	merged := *allInt
	parallel.For(0, nblocks, fuseGrainBlocks, func(blo, bhi int) {
		var localInt [ir.MaxFuseOps]bool
		for j := 0; j < nops; j++ {
			localInt[j] = true
		}
		fuseRunRange(c, prog, nops, n, blo, bhi, &data, &stride, &slots, &needAcc, &localInt, outRe, &abort)
		intMu.Lock()
		for j := 0; j < nops; j++ {
			if !localInt[j] {
				merged[j] = false
			}
		}
		intMu.Unlock()
	})
	*allInt = merged
	return abort.Load()
}

// fusedBoxed interprets the micro-op program over boxed values through
// the same mat/builtins entry points the generic instruction chain
// calls, in the same order — the complex/undefined-operand fallback.
func fusedBoxed(c *Compiled, ctx *builtins.Context, prog []int32, ops []*mat.Value, slots *[ir.MaxFuseOperands]float64, dst int, V []*mat.Value) error {
	var stack [ir.MaxFuseOps]*mat.Value
	sp := 0
	for j := 0; j < len(prog)/2; j++ {
		arg := prog[2*j+1]
		switch prog[2*j] {
		case ir.FuseLoadV:
			stack[sp] = ops[arg]
			sp++
		case ir.FuseLoadSF:
			stack[sp] = mat.Scalar(slots[arg])
			sp++
		case ir.FuseLoadSI:
			stack[sp] = mat.IntScalar(slots[arg])
			sp++
		case ir.FuseNeg:
			x := stack[sp-1]
			if x == nil {
				return fmt.Errorf("use of undefined value")
			}
			v, err := mat.Neg(x)
			if err != nil {
				return err
			}
			stack[sp-1] = v
		case ir.FuseMath:
			x := stack[sp-1]
			b := c.fuseBs[arg]
			if b == nil {
				return fmt.Errorf("unknown builtin %q", c.P.MathFns[arg])
			}
			if x == nil {
				return fmt.Errorf("%s: undefined argument", b.Name)
			}
			outs, err := builtins.Call(ctx, b, []*mat.Value{x}, 1)
			if err != nil {
				return err
			}
			if len(outs) == 0 || outs[0] == nil {
				stack[sp-1] = mat.Empty()
			} else {
				stack[sp-1] = outs[0]
			}
		default:
			x, y := stack[sp-2], stack[sp-1]
			if x == nil || y == nil {
				return fmt.Errorf("use of undefined value")
			}
			var v *mat.Value
			var err error
			switch prog[2*j] {
			case ir.FuseAdd:
				v, err = mat.Add(x, y)
			case ir.FuseSub:
				v, err = mat.Sub(x, y)
			case ir.FuseMul:
				v, err = mat.ElemMul(x, y)
			case ir.FuseDiv:
				v, err = mat.ElemDiv(x, y)
			default: // ir.FusePow, the one code verify leaves
				v, err = mat.ElemPow(x, y)
			}
			if err != nil {
				return err
			}
			stack[sp-2] = v
			sp--
		}
	}
	V[dst] = stack[0]
	return nil
}
