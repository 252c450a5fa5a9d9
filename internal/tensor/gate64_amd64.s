// AVX2 float64 kernels for the elementwise half of a GRU step: the float64
// twins of gate32_amd64.s, four lanes a register. gate.go has the contract
// and the Go loops these must match to the bit. Only VADDPD, VSUBPD, VMULPD
// and VMAXPD, one per operation of the Go expression and in its order:
// nothing is fused, so nothing rounds differently.
//
// The gate kernels walk `rows` rows of `cols` leading columns (a multiple of
// 4, at least 4); the gate matrix advances 2·width doubles a row, the other
// two width. Callers (f32gemm_amd64.go) guarantee rows ≥ 1; the columns past
// cols stay in Go.

#include "textflag.h"

// func addReLU4f64(dst, a, b *float64, n uintptr)
//
// n ≥ 4, a multiple of 4.
TEXT ·addReLU4f64(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHRQ $2, CX
	VXORPD Y15, Y15, Y15

reluloop:
	VMOVUPD (SI), Y0
	VADDPD  (BX), Y0, Y0 // x = a + b
	// As in addReLU8f32: MAX returns x when either operand is NaN or both
	// are zero, and the add of +0 turns a −0 into Go's +0.
	VMAXPD  Y0, Y15, Y0
	VADDPD  Y15, Y0, Y0
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  reluloop

	VZEROUPPER
	RET

// func gateMul4f64(dst, r, h *float64, rows, cols, width uintptr)
//
// dst[i][j] = r[i][j]·h[i][j], r pointing at the right half of row 0 of zr.
TEXT ·gateMul4f64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r+8(FP), SI
	MOVQ h+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), R8
	MOVQ width+40(FP), R9
	SHLQ $3, R8 // bytes a row the loop covers
	SHLQ $3, R9 // bytes a row of dst and h; zr rows are twice that

mulrow:
	XORQ AX, AX
mulcol:
	VMOVUPD (SI)(AX*1), Y0
	VMULPD  (BX)(AX*1), Y0, Y0
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R8
	JB   mulcol
	ADDQ R9, DI
	ADDQ R9, BX
	LEAQ (SI)(R9*2), SI
	DECQ CX
	JNZ  mulrow

	VZEROUPPER
	RET

// func gateBlend4f64(h, z, c *float64, rows, cols, width uintptr)
//
// h[i][j] = (1−z[i][j])·c[i][j] + z[i][j]·h[i][j], z pointing at row 0 of zr.
TEXT ·gateBlend4f64(SB), NOSPLIT, $0-48
	MOVQ h+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ c+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), R8
	MOVQ width+40(FP), R9
	SHLQ $3, R8
	SHLQ $3, R9
	VBROADCASTSD one64<>(SB), Y15

blendrow:
	XORQ AX, AX
blendcol:
	VMOVUPD (SI)(AX*1), Y0
	VSUBPD  Y0, Y15, Y1         // 1 − z
	VMULPD  (BX)(AX*1), Y1, Y1  // (1 − z)·c
	VMULPD  (DI)(AX*1), Y0, Y0  // z·h
	VADDPD  Y0, Y1, Y1
	VMOVUPD Y1, (DI)(AX*1)
	ADDQ $32, AX
	CMPQ AX, R8
	JB   blendcol
	ADDQ R9, DI
	ADDQ R9, BX
	LEAQ (SI)(R9*2), SI
	DECQ CX
	JNZ  blendrow

	VZEROUPPER
	RET

DATA one64<>+0(SB)/8, $1.0
GLOBL one64<>(SB), RODATA|NOPTR, $8
