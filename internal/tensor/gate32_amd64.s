// AVX2 float32 kernels for the elementwise half of a GRU step; gate.go has
// the contract and the Go loops these must match to the bit. Only VADDPS,
// VSUBPS, VMULPS and VMAXPS, one per operation of the Go expression and in
// its order: nothing is fused, so nothing rounds differently.
//
// The gate kernels walk `rows` rows of `cols` leading columns (a multiple of
// 8, at least 8); the gate matrix advances 2·width floats a row, the other
// two width. Callers (f32gemm_amd64.go) guarantee rows ≥ 1; the columns past
// cols stay in Go.

#include "textflag.h"

// func addReLU8f32(dst, a, b *float32, n uintptr)
//
// n ≥ 8, a multiple of 8.
TEXT ·addReLU8f32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	VXORPS Y15, Y15, Y15

reluloop:
	VMOVUPS (SI), Y0
	VADDPS  (BX), Y0, Y0 // x = a + b
	// MAX returns its first operand here when either is NaN or both are
	// zero: x first keeps a NaN a NaN, and leaves −0 as −0 — which the add
	// of +0 turns into the +0 Go's max(−0, 0) gives, and changes nothing else.
	VMAXPS  Y0, Y15, Y0
	VADDPS  Y15, Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  reluloop

	VZEROUPPER
	RET

// func gateMul8f32(dst, r, h *float32, rows, cols, width uintptr)
//
// dst[i][j] = r[i][j]·h[i][j], r pointing at the right half of row 0 of zr.
TEXT ·gateMul8f32(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ r+8(FP), SI
	MOVQ h+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), R8
	MOVQ width+40(FP), R9
	SHLQ $2, R8 // bytes a row the loop covers
	SHLQ $2, R9 // bytes a row of dst and h; zr rows are twice that

mulrow:
	XORQ AX, AX
mulcol:
	VMOVUPS (SI)(AX*1), Y0
	VMULPS  (BX)(AX*1), Y0, Y0
	VMOVUPS Y0, (DI)(AX*1)
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

// func gateBlend8f32(h, z, c *float32, rows, cols, width uintptr)
//
// h[i][j] = (1−z[i][j])·c[i][j] + z[i][j]·h[i][j], z pointing at row 0 of zr.
TEXT ·gateBlend8f32(SB), NOSPLIT, $0-48
	MOVQ h+0(FP), DI
	MOVQ z+8(FP), SI
	MOVQ c+16(FP), BX
	MOVQ rows+24(FP), CX
	MOVQ cols+32(FP), R8
	MOVQ width+40(FP), R9
	SHLQ $2, R8
	SHLQ $2, R9
	VBROADCASTSS one<>(SB), Y15

blendrow:
	XORQ AX, AX
blendcol:
	VMOVUPS (SI)(AX*1), Y0
	VSUBPS  Y0, Y15, Y1         // 1 − z
	VMULPS  (BX)(AX*1), Y1, Y1  // (1 − z)·c
	VMULPS  (DI)(AX*1), Y0, Y0  // z·h
	VADDPS  Y0, Y1, Y1
	VMOVUPS Y1, (DI)(AX*1)
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

DATA one<>+0(SB)/4, $0x3f800000
GLOBL one<>(SB), RODATA|NOPTR, $4
