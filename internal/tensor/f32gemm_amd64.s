// AVX2+FMA float32 GEMM tiles for the blocked serving kernels.
//
// Each function computes one output tile of a row-major product
// out[r][c] = Σ_p a[r][p]·b[p][c] with all accumulators held in YMM
// registers for the whole k loop. b rows are loaded 16 floats (two YMM) at
// a time and reused across the tile rows; a values are broadcast. The
// k-accumulation order per element is ascending, matching the scalar
// kernels; VFMADD rounds once per multiply-add, so the tiles are slightly
// more accurate than the scalar path, never less.
//
// Strides are passed in elements and converted to bytes here. Callers
// (f32gemm_amd64.go) guarantee k ≥ 1 and full 16-column tiles; ragged
// edges stay in Go.
//
// Each k loop starts on a 64-byte boundary (PCALIGN $64, which also aligns
// the function): without it the loop head's offset in its cache line
// follows whatever the linker placed before the function, so an edit to any
// code linked earlier could shift the serving path's hottest loop by half a
// line.

#include "textflag.h"

// func f32cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·f32cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func f32xgetbv() (eax, edx uint32)
TEXT ·f32xgetbv(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// func gemm4x16f32(out, a, b *float32, k, an, bn, on uintptr)
//
// 4-row × 16-column tile: 8 accumulator registers (two YMM per row),
// Y8/Y9 hold the current 16 b values, Y10 the broadcast a value.
TEXT ·gemm4x16f32(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ an+32(FP), R8
	MOVQ bn+40(FP), R9
	MOVQ on+48(FP), R10
	SHLQ $2, R8
	SHLQ $2, R9
	SHLQ $2, R10
	LEAQ (SI)(R8*1), R11  // a row 1
	LEAQ (R11)(R8*1), R12 // a row 2
	LEAQ (R12)(R8*1), R13 // a row 3
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	PCALIGN $64
tile4loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R11), Y10
	VFMADD231PS Y8, Y10, Y2
	VFMADD231PS Y9, Y10, Y3
	VBROADCASTSS (R12), Y10
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VBROADCASTSS (R13), Y10
	VFMADD231PS Y8, Y10, Y6
	VFMADD231PS Y9, Y10, Y7
	ADDQ $4, SI
	ADDQ $4, R11
	ADDQ $4, R12
	ADDQ $4, R13
	ADDQ R9, BX
	DECQ CX
	JNZ  tile4loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ R10, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ R10, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ R10, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	VZEROUPPER
	RET

// func gemm1x16f32(out, a, b *float32, k, bn uintptr)
//
// Single-row × 16-column tile for the row tail.
TEXT ·gemm1x16f32(SB), NOSPLIT, $0-40
	MOVQ out+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ k+24(FP), CX
	MOVQ bn+32(FP), R9
	SHLQ $2, R9
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

	PCALIGN $64
tile1loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	ADDQ $4, SI
	ADDQ R9, BX
	DECQ CX
	JNZ  tile1loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VZEROUPPER
	RET
