// AVX2 float64 GEMM tiles beneath MatMulBlockedInto.
//
// Each function computes one output tile of a row-major product
// out[r][c] = Σ_p a[r][p]·b[p][c] with all accumulators held in YMM
// registers for the whole k loop. b rows are loaded 8 doubles (two YMM) at
// a time and reused across the tile rows; a values are broadcast.
//
// Every multiply-add is a VMULPD followed by a VADDPD — never a VFMADD — and
// k ascends, so each element goes through exactly the rounding sequence of
// the scalar `c += a*b` loops in blocked.go: the tiles are bit-identical to
// the scalar kernels, not merely close. That is what lets the training tape,
// the fused float64 scorer and the ragged edges finished in Go share one
// answer to the last bit (TestF64TileMatchesScalar).
//
// Strides are passed in elements and converted to bytes here. Callers
// (matMulAsm64) guarantee k ≥ 1 and full 8-column tiles; ragged edges stay
// in Go.

#include "textflag.h"

// func gemm4x8f64(out, a, b *float64, k, an, bn, on uintptr)
//
// 4-row × 8-column tile: 8 accumulator registers (two YMM per row), Y8/Y9
// hold the current 8 b values, Y10 the broadcast a value, Y11/Y12 the
// products on their way into the accumulators.
TEXT ·gemm4x8f64(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ an+32(FP), R8
	MOVQ bn+40(FP), R9
	MOVQ on+48(FP), R10
	SHLQ $3, R8
	SHLQ $3, R9
	SHLQ $3, R10
	LEAQ (SI)(R8*1), R11  // a row 1
	LEAQ (R11)(R8*1), R12 // a row 2
	LEAQ (R12)(R8*1), R13 // a row 3
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

	PCALIGN $32
tile4loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R11), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (R12), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R13), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ $8, SI
	ADDQ $8, R11
	ADDQ $8, R12
	ADDQ $8, R13
	ADDQ R9, BX
	DECQ CX
	JNZ  tile4loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ R10, DI
	VMOVUPD Y2, (DI)
	VMOVUPD Y3, 32(DI)
	ADDQ R10, DI
	VMOVUPD Y4, (DI)
	VMOVUPD Y5, 32(DI)
	ADDQ R10, DI
	VMOVUPD Y6, (DI)
	VMOVUPD Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x8f64(out, a, b *float64, k, bn uintptr)
//
// Single-row × 8-column tile for the row tail (and every batch-1 product).
TEXT ·gemm1x8f64(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ bn+32(FP), R9
	SHLQ $3, R9
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	PCALIGN $32
tile1loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	ADDQ $8, SI
	ADDQ R9, BX
	DECQ CX
	JNZ  tile1loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VZEROUPPER
	RET
