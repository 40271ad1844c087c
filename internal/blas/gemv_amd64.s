//go:build amd64

#include "textflag.h"

// func gemvQuads(rows, quads int64, alpha float64, a *float64, lda int64, x, y *float64)
//
// y[0:rows] += alpha*x[j]*A[:, j] for the 4*quads columns from a, four
// columns per pass over y, the body of gemvRows' four-column loop. rows
// is a positive multiple of 4; each YMM register holds four rows of y.
//
// Every element sees the Go loop's roundings in the Go loop's order:
// t = alpha*x[j] once per column (VMULPD on the broadcast), then one
// VMULPD and one VADDPD per column in ascending j. There is no FMA on
// purpose: a fused t*c+s rounds once where the Go loop rounds twice,
// and the result must not depend on which kernel ran.
//
// Register plan: Y15 alpha, Y10-Y13 the broadcast t0..t3 of the
// current quad; R8-R10 and R12 its four columns; Y0/Y2 two row groups
// of y, Y1/Y3 their products.
TEXT ·gemvQuads(SB), NOSPLIT, $0-56
	MOVQ         rows+0(FP), CX
	SHLQ         $3, CX                 // rows in bytes
	MOVQ         quads+8(FP), R11
	VBROADCASTSD alpha+16(FP), Y15
	MOVQ         a+24(FP), SI
	MOVQ         lda+32(FP), DX
	SHLQ         $3, DX                 // lda in bytes
	MOVQ         x+40(FP), BX
	MOVQ         y+48(FP), DI
	MOVQ         CX, R13
	ANDQ         $-64, R13              // bytes covered eight rows at a time

quad:
	VBROADCASTSD (BX), Y10
	VMULPD       Y15, Y10, Y10          // t0 = alpha*x[j]
	VBROADCASTSD 8(BX), Y11
	VMULPD       Y15, Y11, Y11          // t1
	VBROADCASTSD 16(BX), Y12
	VMULPD       Y15, Y12, Y12          // t2
	VBROADCASTSD 24(BX), Y13
	VMULPD       Y15, Y13, Y13          // t3
	MOVQ         SI, R8                 // column j
	LEAQ         (SI)(DX*1), R9         // column j+1
	LEAQ         (SI)(DX*2), R10        // column j+2
	LEAQ         (R9)(DX*2), R12        // column j+3
	XORQ         AX, AX
	CMPQ         R13, $0
	JEQ          four

eight:
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y2
	VMULPD  (R8)(AX*1), Y10, Y1
	VMULPD  32(R8)(AX*1), Y10, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMULPD  (R9)(AX*1), Y11, Y1
	VMULPD  32(R9)(AX*1), Y11, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMULPD  (R10)(AX*1), Y12, Y1
	VMULPD  32(R10)(AX*1), Y12, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMULPD  (R12)(AX*1), Y13, Y1
	VMULPD  32(R12)(AX*1), Y13, Y3
	VADDPD  Y1, Y0, Y0
	VADDPD  Y3, Y2, Y2
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y2, 32(DI)(AX*1)
	ADDQ    $64, AX
	CMPQ    AX, R13
	JLT     eight

four:
	CMPQ    AX, CX
	JGE     next
	VMOVUPD (DI)(AX*1), Y0
	VMULPD  (R8)(AX*1), Y10, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R9)(AX*1), Y11, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R10)(AX*1), Y12, Y1
	VADDPD  Y1, Y0, Y0
	VMULPD  (R12)(AX*1), Y13, Y1
	VADDPD  Y1, Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)

next:
	LEAQ (SI)(DX*4), SI               // next four columns
	ADDQ $32, BX
	DECQ R11
	JNE  quad

	VZEROUPPER
	RET
