// AVX2 float64 kernels for the elementwise half of a training step, four
// lanes a register. train.go has the contracts and the Go loops these must
// match to the bit. Only VMULPD, VADDPD, VSUBPD, VDIVPD and VSQRTPD, one per
// operation of the Go expression, with its operands in its order — nothing
// is fused, so nothing rounds differently — and VCMPPD with VANDPD / VANDNPD
// where the Go code branches on a comparison.
//
// The GRU kernels walk `rows` rows of `cols` leading columns (a multiple of
// 4, at least 4); the gate matrix advances 2·width doubles a row, the others
// width. Callers (f32gemm_amd64.go) guarantee rows ≥ 1; the columns past
// cols stay in Go.

#include "textflag.h"

// func relu4f64(dst, x *float64, n uintptr)
//
// n ≥ 4, a multiple of 4. x < 0 (ordered: false for NaN and −0) selects +0.
TEXT ·relu4f64(SB), NOSPLIT, $0-24
	MOVQ dst+0(FP), DI
	MOVQ x+8(FP), SI
	MOVQ n+16(FP), CX
	SHRQ $2, CX
	VXORPD Y15, Y15, Y15

reluloop:
	VMOVUPD (SI), Y0
	VCMPPD  $0x11, Y15, Y0, Y1 // x < 0, LT_OQ
	VANDNPD Y0, Y1, Y0         // x where not, +0 where it is
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JNZ  reluloop

	VZEROUPPER
	RET

// func gruBackUpdate4f64(dhp, dz, dc, dh, z, hp, c, pre *float64, rows, cols, width, mode uintptr)
//
// mode bit 0: add ∂h⊙z into dhp; bit 1: mask dc to +0 where !(pre > 0).
// z points at row 0 of zr. Y15 holds 1, Y14 zero.
TEXT ·gruBackUpdate4f64(SB), NOSPLIT, $0-96
	MOVQ dhp+0(FP), R8
	MOVQ dz+8(FP), R9
	MOVQ dc+16(FP), R10
	MOVQ dh+24(FP), R11
	MOVQ z+32(FP), R12
	MOVQ hp+40(FP), R13
	MOVQ c+48(FP), DI
	MOVQ pre+56(FP), SI
	MOVQ rows+64(FP), CX
	MOVQ cols+72(FP), DX
	SHLQ $3, DX // bytes a row the loop covers
	MOVQ width+80(FP), BX
	SHLQ $3, BX // bytes a row of everything but zr, whose rows are twice that
	MOVQ mode+88(FP), R14
	VBROADCASTSD trainOne<>(SB), Y15
	VXORPD Y14, Y14, Y14

updrow:
	XORQ AX, AX
updcol:
	VMOVUPD (R11)(AX*1), Y0 // ∂h
	VMOVUPD (R12)(AX*1), Y1 // z
	TESTQ $1, R14
	JZ    updnodhp
	VMULPD  Y1, Y0, Y2         // ∂h·z
	VMOVUPD (R8)(AX*1), Y3
	VADDPD  Y2, Y3, Y3         // dhp + ∂h·z
	VMOVUPD Y3, (R8)(AX*1)
updnodhp:
	VSUBPD Y1, Y15, Y3 // 1 − z
	VMULPD Y3, Y0, Y4  // ∂h·(1 − z)
	TESTQ  $2, R14
	JZ     updnomask
	VMOVUPD (SI)(AX*1), Y5
	VCMPPD  $0x1e, Y14, Y5, Y5 // pre > 0, GT_OQ
	VANDPD  Y5, Y4, Y4
updnomask:
	VMOVUPD Y4, (R10)(AX*1)
	VMULPD  (R13)(AX*1), Y0, Y5 // ∂h·h_{t−1}
	VMULPD  (DI)(AX*1), Y0, Y6  // ∂h·h′
	VSUBPD  Y6, Y5, Y5
	VMULPD  Y1, Y5, Y5          // ·z
	VMULPD  Y3, Y5, Y5          // ·(1 − z)
	VMOVUPD Y5, (R9)(AX*1)
	ADDQ $32, AX
	CMPQ AX, DX
	JB   updcol
	ADDQ BX, R8
	ADDQ BX, R9
	ADDQ BX, R10
	ADDQ BX, R11
	LEAQ (R12)(BX*2), R12
	ADDQ BX, R13
	ADDQ BX, DI
	ADDQ BX, SI
	DECQ CX
	JNZ  updrow

	VZEROUPPER
	RET

// func gruBackReset4f64(dhp, dr, drh, r, hp *float64, rows, cols, width, mode uintptr)
//
// mode bit 0: add drh⊙r into dhp. r points at the right half of row 0 of zr.
TEXT ·gruBackReset4f64(SB), NOSPLIT, $0-72
	MOVQ dhp+0(FP), R8
	MOVQ dr+8(FP), R9
	MOVQ drh+16(FP), R10
	MOVQ r+24(FP), R11
	MOVQ hp+32(FP), R12
	MOVQ rows+40(FP), CX
	MOVQ cols+48(FP), DX
	SHLQ $3, DX
	MOVQ width+56(FP), BX
	SHLQ $3, BX
	MOVQ mode+64(FP), R14
	VBROADCASTSD trainOne<>(SB), Y15

resrow:
	XORQ AX, AX
rescol:
	VMOVUPD (R10)(AX*1), Y0    // ∂(r⊙h)
	VMOVUPD (R11)(AX*1), Y1    // r
	VMULPD  (R12)(AX*1), Y0, Y2 // ∂(r⊙h)·h_{t−1}
	VMULPD  Y1, Y2, Y2          // ·r
	VSUBPD  Y1, Y15, Y3         // 1 − r
	VMULPD  Y3, Y2, Y2          // ·(1 − r)
	VMOVUPD Y2, (R9)(AX*1)
	TESTQ $1, R14
	JZ    resnodhp
	VMULPD  Y1, Y0, Y4 // ∂(r⊙h)·r
	VMOVUPD (R8)(AX*1), Y5
	VADDPD  Y4, Y5, Y5 // dhp + ∂(r⊙h)·r
	VMOVUPD Y5, (R8)(AX*1)
resnodhp:
	ADDQ $32, AX
	CMPQ AX, DX
	JB   rescol
	ADDQ BX, R8
	ADDQ BX, R9
	ADDQ BX, R10
	LEAQ (R11)(BX*2), R11
	ADDQ BX, R12
	DECQ CX
	JNZ  resrow

	VZEROUPPER
	RET

// func colSum4f64(acc, m *float64, rows, cols, width uintptr)
//
// acc[j] += m[i][j], i ascending, for the leading cols columns (a multiple
// of 4, at least 4): 16 columns at a time in four accumulators while they
// last, then 4, each walking every row before it is stored.
TEXT ·colSum4f64(SB), NOSPLIT, $0-40
	MOVQ acc+0(FP), DI
	MOVQ m+8(FP), SI
	MOVQ rows+16(FP), R8
	MOVQ cols+24(FP), DX
	SHLQ $3, DX
	MOVQ width+32(FP), BX
	SHLQ $3, BX
	XORQ AX, AX // the block's byte offset into acc and an m row

sum16:
	MOVQ DX, R9
	SUBQ AX, R9
	CMPQ R9, $128
	JB   sum4
	VMOVUPD (DI)(AX*1), Y0
	VMOVUPD 32(DI)(AX*1), Y1
	VMOVUPD 64(DI)(AX*1), Y2
	VMOVUPD 96(DI)(AX*1), Y3
	LEAQ (SI)(AX*1), R10
	MOVQ R8, CX
sum16loop:
	VADDPD (R10), Y0, Y0
	VADDPD 32(R10), Y1, Y1
	VADDPD 64(R10), Y2, Y2
	VADDPD 96(R10), Y3, Y3
	ADDQ BX, R10
	DECQ CX
	JNZ  sum16loop
	VMOVUPD Y0, (DI)(AX*1)
	VMOVUPD Y1, 32(DI)(AX*1)
	VMOVUPD Y2, 64(DI)(AX*1)
	VMOVUPD Y3, 96(DI)(AX*1)
	ADDQ $128, AX
	JMP  sum16

sum4:
	CMPQ AX, DX
	JAE  sumdone
	VMOVUPD (DI)(AX*1), Y0
	LEAQ (SI)(AX*1), R10
	MOVQ R8, CX
sum4loop:
	VADDPD (R10), Y0, Y0
	ADDQ BX, R10
	DECQ CX
	JNZ  sum4loop
	VMOVUPD Y0, (DI)(AX*1)
	ADDQ $32, AX
	JMP  sum4

sumdone:
	VZEROUPPER
	RET

// func adam4f64(p, grad, m, v *float64, n uintptr, c *AdamCoef)
//
// n ≥ 4, a multiple of 4. Y7–Y15 hold the broadcast coefficients in
// AdamCoef's field order, ε last in Y7.
TEXT ·adam4f64(SB), NOSPLIT, $0-48
	MOVQ p+0(FP), DI
	MOVQ grad+8(FP), SI
	MOVQ m+16(FP), R8
	MOVQ v+24(FP), R9
	MOVQ n+32(FP), CX
	SHRQ $2, CX
	MOVQ c+40(FP), AX
	VBROADCASTSD 0(AX), Y8   // scale
	VBROADCASTSD 8(AX), Y9   // β1
	VBROADCASTSD 16(AX), Y10 // 1 − β1
	VBROADCASTSD 24(AX), Y11 // β2
	VBROADCASTSD 32(AX), Y12 // 1 − β2
	VBROADCASTSD 40(AX), Y13 // bc1
	VBROADCASTSD 48(AX), Y14 // bc2
	VBROADCASTSD 56(AX), Y15 // lr
	VBROADCASTSD 64(AX), Y7  // ε

adamloop:
	VMOVUPD (SI), Y0
	VMULPD  Y8, Y0, Y0   // gi = g·scale
	VMOVUPD (R8), Y1
	VMULPD  Y1, Y9, Y1   // β1·m
	VMULPD  Y0, Y10, Y2  // (1 − β1)·gi
	VADDPD  Y2, Y1, Y1
	VMOVUPD Y1, (R8)
	VMOVUPD (R9), Y3
	VMULPD  Y3, Y11, Y3  // β2·v
	VMULPD  Y0, Y12, Y4  // (1 − β2)·gi
	VMULPD  Y0, Y4, Y4   // ·gi
	VADDPD  Y4, Y3, Y3
	VMOVUPD Y3, (R9)
	VDIVPD  Y13, Y1, Y1  // m̂ = m/bc1
	VDIVPD  Y14, Y3, Y3  // v̂ = v/bc2
	VSQRTPD Y3, Y3
	VADDPD  Y7, Y3, Y3   // √v̂ + ε
	VMULPD  Y1, Y15, Y1  // lr·m̂
	VDIVPD  Y3, Y1, Y1
	VMOVUPD (DI), Y2
	VSUBPD  Y1, Y2, Y2   // p − lr·m̂/(√v̂ + ε)
	VMOVUPD Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ CX
	JNZ  adamloop

	VZEROUPPER
	RET

DATA trainOne<>+0(SB)/8, $1.0
GLOBL trainOne<>(SB), RODATA|NOPTR, $8
