package blas

import (
	"sync"

	"repro/internal/parallel"
)

// Blocked, packed, parallel dgemm.
//
// The kernel follows the classic three-level blocking scheme (Goto-style,
// the same structure BLIS and gonum use): C is computed in column panels
// of gemmNC columns; for each panel the k dimension is walked in blocks
// of gemmKC, packing alpha*B(kc x nc) once into contiguous micro-panels;
// inside that, A(mc x kc) blocks are packed into micro-panels of gemmMR
// rows and a register-resident gemmMR x gemmNR micro-kernel does the
// flops with one load and one store of each C element per k block.
//
// Bit-identity contract (the property the serial-vs-parallel suite
// checks, and the reason results do not depend on Threads):
//
//   - the beta pass touches each C element exactly once, before any
//     accumulation, with the same operation the reference kernel used
//     (store 0, keep, or scale);
//   - each C element then accumulates its k terms in increasing-k
//     order, each term computed as a[i,l] * (alpha*b[l,j]) — packing
//     computes alpha*b[l,j] once, exactly like the reference hoisted
//     t := alpha*b[l,j];
//   - the micro-kernel loads C, accumulates in registers, and stores —
//     memory round-trips between k blocks do not change float64 values;
//   - parallelism only partitions the column panels: every C element is
//     owned by exactly one worker, whose per-element sequence is the
//     serial sequence, and the micro-kernel choice is fixed per process
//     (see gemm_kernel_amd64.go), never per thread or per call.
//
// There is deliberately no `t == 0` quick-skip anywhere: 0*NaN and
// 0*Inf contributions must reach C (IEEE semantics, and MATLAB's).
const (
	gemmMRMax = 8   // largest micro-kernel height any backend uses
	gemmNR    = 4   // micro-kernel cols (register tile width)
	gemmMC    = 128 // rows of A packed per L2-resident block
	gemmKC    = 256 // k extent of a packed block (micro-panels stay L1-sized)
	gemmNC    = 512 // columns of B packed per panel (bounds packB memory)

	// gemmSmall: below this flop count the packing overhead outweighs
	// the micro-kernel win; use the reference jki loop.
	gemmSmall = 32 * 32 * 32
)

// gemmMR is the micro-kernel row count of the selected backend and the
// row width of packed A micro-panels. The portable default is the
// scalar 4x4 kernel; gemm_kernel_amd64.go swaps in an 8x4 AVX2+FMA
// kernel at init when the CPU supports it. Both are fixed for the
// process lifetime, keeping results independent of call site and
// thread count. gemmMC must stay a multiple of every possible gemmMR.
var gemmMR = 4

// microKernel computes a full gemmMR x gemmNR tile of C (column-major,
// leading dimension ldc) += ap x bp over kc packed steps.
var microKernel = portableKernel

// portableKernel is the pure-Go micro-kernel, 4x4 (gemmMR 4).
func portableKernel(kc int, ap, bp []float64, c []float64, ldc int) {
	kernel4x4(kc, ap, bp, c, c[ldc:], c[2*ldc:], c[3*ldc:])
}

// packPool recycles packing buffers across calls and workers. One draw
// holds both panels: packA (gemmMC*gemmKC) then packB (gemmKC*gemmNC),
// padded to full micro-panel multiples.
var packPool = sync.Pool{New: func() any {
	buf := make([]float64, packASize+packBSize)
	return &buf
}}

const (
	packASize = (gemmMC + gemmMRMax) * gemmKC
	packBSize = (gemmNC + gemmNR) * gemmKC
)

// Dgemm computes C = alpha*A*B + beta*C, with A m x k, B k x n, C m x n,
// all column-major with leading dimensions lda, ldb, ldc. beta == 0
// stores (never reads C), so C may hold garbage — including NaNs from a
// recycled pool buffer — on entry.
func Dgemm(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	if m <= 0 || n <= 0 {
		return
	}
	if k <= 0 || alpha == 0 {
		// No A*B contribution: the beta pass is the whole operation.
		// (alpha == 0 still skips A entirely, as reference BLAS does;
		// the NaN-propagation fix concerns alpha*b terms, which do not
		// exist here.)
		gemmBetaPass(m, 0, n, beta, c, ldc)
		return
	}
	// Matrix-vector shapes: the packing machinery would spend O(m*k)
	// buffer writes to feed a single column (or row) of C, several times
	// the cost of the multiply itself. Dgemv computes the identical sums
	// in the identical order — each output element accumulates its k
	// terms in increasing-k order as (alpha*b)*a products over the same
	// beta prologue — so the dispatch is invisible in the bits. The
	// trans case hoists alpha and adds beta*y after the dot product, so
	// it only matches Dgemm's per-term order when alpha == 1 and the
	// prologue is a store; other coefficients stay on the gemm path.
	if n == 1 {
		Dgemv(false, m, k, alpha, a, lda, b[:k], beta, c[:m])
		return
	}
	if m == 1 && lda == 1 && ldc == 1 && alpha == 1 && beta == 0 {
		Dgemv(true, k, n, alpha, b, ldb, a[:k], beta, c[:n])
		return
	}
	if m*n*k <= gemmSmall {
		gemmRef(m, n, k, alpha, a, lda, b, ldb, beta, c, ldc)
		return
	}

	// Parallelize over groups of gemmNR columns so chunk boundaries
	// stay micro-panel aligned. Grain: keep at least ~256k flops per
	// chunk so small-n problems run serial.
	units := (n + gemmNR - 1) / gemmNR
	grain := 1 + (1<<18)/(2*m*k*gemmNR)
	if units <= grain || parallel.DefaultThreads() == 1 {
		// No closure for a product that does not fan out (see Dgemv).
		gemmPanels(m, 0, n, k, alpha, a, lda, b, ldb, beta, c, ldc, nil, nil)
		return
	}
	// Every column chunk multiplies the same blocks of A: pack them once,
	// here, and share them read-only, so that each chunk packs only its
	// own B panels. One pool buffer holds all of packed A and a B slot
	// for every column, so the fan-out draws one buffer where one per
	// worker would do. A product too large for that packs A block by
	// block in every worker, each drawing its own buffer.
	bufp := packPool.Get().(*[]float64)
	var packedA, packedB []float64
	aSize, kcMax := packedASize(m, k), min(k, gemmKC)
	if bSize := units * gemmNR * kcMax; aSize+bSize <= len(*bufp) {
		packedA, packedB = (*bufp)[:aSize], (*bufp)[aSize:aSize+bSize]
		mPad := aSize / k
		for pc := 0; pc < k; pc += gemmKC {
			kc := min(k-pc, gemmKC)
			for ic := 0; ic < m; ic += gemmMC {
				packAPanel(min(m-ic, gemmMC), kc, a[pc*lda+ic:], lda, packedA[pc*mPad+ic*kc:])
			}
		}
	} else {
		packPool.Put(bufp)
		bufp = nil
	}
	parallel.For(0, units, grain, func(ulo, uhi int) {
		jlo, jhi := ulo*gemmNR, min(uhi*gemmNR, n)
		var packB []float64
		if packedA != nil {
			packB = packedB[jlo*kcMax : uhi*gemmNR*kcMax]
		}
		gemmPanels(m, jlo, jhi, k, alpha, a, lda, b, ldb, beta, c, ldc, packedA, packB)
	})
	if bufp != nil {
		packPool.Put(bufp)
	}
}

// packedASize is the length of all of A(m x k) packed: every (kc, mc)
// block's micro-panels, the block at (pc, ic) starting at pc*mPad +
// ic*kc, where mPad is m rounded up to whole micro-panels.
func packedASize(m, k int) int {
	return (m + gemmMR - 1) / gemmMR * gemmMR * k
}

// gemmRef is the reference jki kernel (the seed implementation with the
// beta-store and NaN-propagation fixes applied). Small problems run it
// directly; the differential tests run it as the oracle.
func gemmRef(m, n, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int) {
	for j := 0; j < n; j++ {
		ccol := c[j*ldc : j*ldc+m]
		switch beta {
		case 0:
			for i := range ccol {
				ccol[i] = 0
			}
		case 1:
		default:
			for i := range ccol {
				ccol[i] *= beta
			}
		}
		for l := 0; l < k; l++ {
			t := alpha * b[j*ldb+l]
			acol := a[l*lda : l*lda+m]
			for i := 0; i < m; i++ {
				ccol[i] += t * acol[i]
			}
		}
	}
}

// gemmBetaPass applies the beta prologue to C[0:mi, jlo:jhi): store
// zero, keep, or scale — never 0*C, so stale NaNs cannot leak.
func gemmBetaPass(mi, jlo, jhi int, beta float64, c []float64, ldc int) {
	if beta == 1 {
		return
	}
	for j := jlo; j < jhi; j++ {
		ccol := c[j*ldc : j*ldc+mi]
		if beta == 0 {
			for i := range ccol {
				ccol[i] = 0
			}
		} else {
			for i := range ccol {
				ccol[i] *= beta
			}
		}
	}
}

// gemmPanels computes C[:, jlo:jhi) for one worker: beta prologue, then
// KC x MC blocked accumulation with packed operands. packedA, when not
// nil, holds all of A packed (packedASize) and packB this worker's B
// slot; otherwise both are drawn from the pool here and each block of A
// is packed as it is needed.
func gemmPanels(m, jlo, jhi, k int, alpha float64, a []float64, lda int, b []float64, ldb int, beta float64, c []float64, ldc int, packedA, packB []float64) {
	var bufp *[]float64
	var packA []float64
	if packedA == nil {
		bufp = packPool.Get().(*[]float64)
		packA, packB = (*bufp)[:packASize], (*bufp)[packASize:]
	}

	gemmBetaPass(m, jlo, jhi, beta, c, ldc)

	for jc := jlo; jc < jhi; jc += gemmNC {
		nc := jhi - jc
		if nc > gemmNC {
			nc = gemmNC
		}
		for pc := 0; pc < k; pc += gemmKC {
			kc := k - pc
			if kc > gemmKC {
				kc = gemmKC
			}
			packBPanel(kc, nc, alpha, b[jc*ldb+pc:], ldb, packB)
			for ic := 0; ic < m; ic += gemmMC {
				mc := m - ic
				if mc > gemmMC {
					mc = gemmMC
				}
				ap := packA
				if packedA != nil {
					ap = packedA[pc*(len(packedA)/k)+ic*kc:]
				} else {
					packAPanel(mc, kc, a[pc*lda+ic:], lda, packA)
				}
				gemmMacro(mc, nc, kc, ap, packB, c[jc*ldc+ic:], ldc)
			}
		}
	}
	if bufp != nil {
		packPool.Put(bufp)
	}
}

// packAPanel packs A[0:mc, 0:kc] (column-major, leading dim lda) into
// micro-panels of gemmMR rows: panel r holds kc steps of gemmMR
// consecutive row values, zero-padded past mc.
func packAPanel(mc, kc int, a []float64, lda int, dst []float64) {
	mr0 := gemmMR
	at := 0
	for ir := 0; ir < mc; ir += mr0 {
		mr := mc - ir
		if mr > mr0 {
			mr = mr0
		}
		switch {
		case mr == 8:
			for p := 0; p < kc; p++ {
				src := a[p*lda+ir : p*lda+ir+8]
				d := dst[at : at+8]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
				d[4], d[5], d[6], d[7] = src[4], src[5], src[6], src[7]
				at += 8
			}
		case mr == 4:
			for p := 0; p < kc; p++ {
				src := a[p*lda+ir : p*lda+ir+4]
				d := dst[at : at+4]
				d[0], d[1], d[2], d[3] = src[0], src[1], src[2], src[3]
				at += 4
			}
		default:
			for p := 0; p < kc; p++ {
				src := a[p*lda+ir : p*lda+ir+mr]
				for i := 0; i < mr0; i++ {
					if i < mr {
						dst[at+i] = src[i]
					} else {
						dst[at+i] = 0
					}
				}
				at += mr0
			}
		}
	}
}

// packBPanel packs alpha*B[0:kc, 0:nc] (column-major, leading dim ldb)
// into micro-panels of gemmNR columns: panel s holds kc steps of gemmNR
// consecutive column values, zero-padded past nc.
func packBPanel(kc, nc int, alpha float64, b []float64, ldb int, dst []float64) {
	at := 0
	for jr := 0; jr < nc; jr += gemmNR {
		nr := nc - jr
		if nr > gemmNR {
			nr = gemmNR
		}
		if nr == gemmNR {
			b0 := b[jr*ldb:]
			b1 := b[(jr+1)*ldb:]
			b2 := b[(jr+2)*ldb:]
			b3 := b[(jr+3)*ldb:]
			for p := 0; p < kc; p++ {
				d := dst[at : at+4]
				d[0] = alpha * b0[p]
				d[1] = alpha * b1[p]
				d[2] = alpha * b2[p]
				d[3] = alpha * b3[p]
				at += 4
			}
		} else {
			for p := 0; p < kc; p++ {
				for j := 0; j < gemmNR; j++ {
					if j < nr {
						dst[at+j] = alpha * b[(jr+j)*ldb+p]
					} else {
						dst[at+j] = 0
					}
				}
				at += gemmNR
			}
		}
	}
}

// gemmMacro runs the micro-kernel over every gemmMR x gemmNR tile of
// the packed mc x nc block.
func gemmMacro(mc, nc, kc int, packA, packB []float64, c []float64, ldc int) {
	mr0 := gemmMR
	for jr := 0; jr < nc; jr += gemmNR {
		nr := nc - jr
		if nr > gemmNR {
			nr = gemmNR
		}
		bp := packB[(jr/gemmNR)*kc*gemmNR:]
		for ir := 0; ir < mc; ir += mr0 {
			mr := mc - ir
			if mr > mr0 {
				mr = mr0
			}
			ap := packA[(ir/mr0)*kc*mr0:]
			if mr == mr0 && nr == gemmNR {
				microKernel(kc, ap, bp, c[jr*ldc+ir:], ldc)
			} else {
				kernelEdge(kc, mr0, mr, nr, ap, bp, c[jr*ldc+ir:], ldc)
			}
		}
	}
}

// kernel4x4 is the portable register micro-kernel: a full 4 x gemmNR C
// tile accumulated over kc steps. C is loaded once, accumulated in
// scalar registers in increasing-k order, and stored once.
func kernel4x4(kc int, ap, bp, c0, c1, c2, c3 []float64) {
	c00, c10, c20, c30 := c0[0], c0[1], c0[2], c0[3]
	c01, c11, c21, c31 := c1[0], c1[1], c1[2], c1[3]
	c02, c12, c22, c32 := c2[0], c2[1], c2[2], c2[3]
	c03, c13, c23, c33 := c3[0], c3[1], c3[2], c3[3]
	ap = ap[:4*kc]
	bp = bp[:4*kc]
	for p := 0; p < kc; p++ {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		c00 += a0 * b0
		c10 += a1 * b0
		c20 += a2 * b0
		c30 += a3 * b0
		c01 += a0 * b1
		c11 += a1 * b1
		c21 += a2 * b1
		c31 += a3 * b1
		c02 += a0 * b2
		c12 += a1 * b2
		c22 += a2 * b2
		c32 += a3 * b2
		c03 += a0 * b3
		c13 += a1 * b3
		c23 += a2 * b3
		c33 += a3 * b3
		ap = ap[4:]
		bp = bp[4:]
	}
	c0[0], c0[1], c0[2], c0[3] = c00, c10, c20, c30
	c1[0], c1[1], c1[2], c1[3] = c01, c11, c21, c31
	c2[0], c2[1], c2[2], c2[3] = c02, c12, c22, c32
	c3[0], c3[1], c3[2], c3[3] = c03, c13, c23, c33
}

// kernelEdge handles partial tiles (mr < mrStep or nr < gemmNR) at the
// block fringe. The packed operands are zero-padded to full micro-panel
// width, so the accumulation loop is uniform; only real C lanes are
// loaded and stored.
func kernelEdge(kc, mrStep, mr, nr int, ap, bp []float64, c []float64, ldc int) {
	var acc [gemmNR][gemmMRMax]float64
	for j := 0; j < nr; j++ {
		for i := 0; i < mr; i++ {
			acc[j][i] = c[j*ldc+i]
		}
	}
	for p := 0; p < kc; p++ {
		a := ap[p*mrStep : p*mrStep+mrStep]
		b := bp[p*gemmNR : p*gemmNR+gemmNR]
		for j := 0; j < gemmNR; j++ {
			bj := b[j]
			for i := 0; i < mrStep; i++ {
				acc[j][i] += a[i] * bj
			}
		}
	}
	for j := 0; j < nr; j++ {
		for i := 0; i < mr; i++ {
			c[j*ldc+i] = acc[j][i]
		}
	}
}
