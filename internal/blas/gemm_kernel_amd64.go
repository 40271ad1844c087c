//go:build amd64

package blas

// The AVX2+FMA micro-kernel (gemm_kernel_amd64.s): an 8x4 C tile
// accumulated over kc packed steps with fused multiply-adds. Selected
// at init when the CPU supports it; otherwise the pure-Go 4x4 kernel
// runs. FMA contracts each a*b+c to one rounding, so results can
// differ from the mul-then-add kernels in the last ulp — but the
// kernel choice is fixed for the process, so results remain
// deterministic and thread-count-independent (the bit-identity
// contract partitions work, it never changes an element's kernel).

// cpuSupportsAVX2FMA reports AVX2 + FMA + OS support for YMM state.
func cpuSupportsAVX2FMA() bool

// gemmKernel8x4 computes the 8x4 C tile at c (column-major, leading
// dimension ldc) += sum over kc steps of ap (8 rows/step) x bp
// (4 cols/step).
//
//go:noescape
func gemmKernel8x4(kc int64, ap, bp, c *float64, ldc int64)

// gemvQuads is gemvRows' four-column pass over rows [0, rows) of y,
// rows a positive multiple of 4 (gemv_amd64.s). It multiplies and adds
// in separate instructions, so it needs AVX2 only; it is selected with
// the gemm kernel so that one CPU check decides both.
//
//go:noescape
func gemvQuads(rows, quads int64, alpha float64, a *float64, lda int64, x, y *float64)

func init() {
	if cpuSupportsAVX2FMA() {
		gemmMR = 8
		microKernel = func(kc int, ap, bp []float64, c []float64, ldc int) {
			gemmKernel8x4(int64(kc), &ap[0], &bp[0], &c[0], int64(ldc))
		}
		quadsKernel = func(rows, quads int, alpha float64, a []float64, lda int, x, y []float64) {
			gemvQuads(int64(rows), int64(quads), alpha, &a[0], int64(lda), &x[0], &y[0])
		}
	}
}
