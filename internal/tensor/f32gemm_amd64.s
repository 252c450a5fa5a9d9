// AVX2+FMA float32 GEMM beneath MatMulBlockedInto: one call per product.
//
// gemmf32 computes the leading cols columns (a multiple of 8) of a row-major
// product out[r][c] = Σ_p a[r][p]·b[p][c], in the walk gemmf64 makes: 4-row
// strips of 4×16 tiles, then the m mod 4 remaining rows by 1×16 tiles. A
// tile holds all its accumulators in YMM registers for the whole k loop;
// b rows are loaded 16 floats (two YMM) at a time and reused across the tile
// rows, a values are broadcast. k ascends in every element, as in the scalar
// kernel; the 16-column tiles fuse each multiply-add (VFMADD231PS, one
// rounding instead of two), so they are slightly more accurate than the
// scalar path, never less.
//
// When cols is not a multiple of 16, its last 8 columns are one 8-wide group
// per strip (4×8) and per tail row (1×8) that never fuses: every
// multiply-add is a VMULPS followed by a VADDPS, k ascending — exactly the
// rounding sequence of matMulScalar's `c += a*b`, so those columns carry the
// bits the Go kernel would have given them (TestF32EdgeTileMatchesScalar).
// Only the n mod 8 columns past cols stay in Go.
//
// The four rows of a strip are four base pointers, each one k past its
// row's end, and one shared index register (CX) that counts from −k·4 up to
// 0, so one add steps all four and sets the loop's flags. Strides are passed
// in elements and converted to bytes here. The caller (matMulAsm32)
// guarantees m ≥ 1, k ≥ 1 and cols ≥ 8.
//
// Each k loop starts on a 64-byte boundary (PCALIGN $64, which also aligns
// the function): without it the loop head's offset in its cache line
// follows whatever the linker placed before the function, so an edit to any
// code linked earlier could shift the serving path's hottest loop by half a
// line.

#include "textflag.h"

// STRIP4 points a tile at its column byte offset R10 within the strip at
// DX (out) and AX (a): DI its out row 0, SI, R11, R12, R13 a's four rows one
// k past their end, CX at −k·4 and BX the tile's first b row. The macros
// read gemmf32's b+16(FP), so they sit above every TEXT: go vet checks an
// FP reference against the function whose body it appears in.
#define STRIP4 \
	LEAQ (DX)(R10*1), DI; \
	LEAQ (AX)(R8*1), SI; \
	MOVQ R8, CX; \
	NEGQ CX; \
	LEAQ (SI)(R8*1), R11; \
	LEAQ (R11)(R8*1), R12; \
	LEAQ (R12)(R8*1), R13; \
	MOVQ b+16(FP), BX; \
	ADDQ R10, BX

// ROW1 is STRIP4 for a single row: DI, SI, CX and BX.
#define ROW1 \
	LEAQ (DX)(R10*1), DI; \
	LEAQ (AX)(R8*1), SI; \
	MOVQ R8, CX; \
	NEGQ CX; \
	MOVQ b+16(FP), BX; \
	ADDQ R10, BX

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

// func gemmf32(out, a, b *float32, m, k, cols, n uintptr)
//
// DX and AX walk out and a by strip (or row), R10 is the tile's byte offset
// into a b and out row, R15 the finished columns in bytes, R8 a row in
// bytes, R9 a b or out row in bytes and R14 the rows left. Inside a 4×16
// tile Y0–Y7 accumulate (two YMM a row), Y8/Y9 hold the current 16 b values
// and Y10 the broadcast a value; the 4×8 group uses Y0–Y3, Y8, Y10 and
// Y11 for the product on its way into the accumulator.
TEXT ·gemmf32(SB), NOSPLIT, $0-56
	MOVQ out+0(FP), DX
	MOVQ a+8(FP), AX
	MOVQ m+24(FP), R14
	MOVQ k+32(FP), R8
	SHLQ $2, R8 // a row, bytes
	MOVQ cols+40(FP), R15
	SHLQ $2, R15 // finished columns, bytes
	MOVQ n+48(FP), R9
	SHLQ $2, R9 // b and out row, bytes

strip4:
	CMPQ R14, $4
	JB   rows1
	XORQ R10, R10

tile4:
	MOVQ R15, CX
	SUBQ R10, CX
	CMPQ CX, $64
	JB   edge4
	STRIP4
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
	VBROADCASTSS (SI)(CX*1), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R11)(CX*1), Y10
	VFMADD231PS Y8, Y10, Y2
	VFMADD231PS Y9, Y10, Y3
	VBROADCASTSS (R12)(CX*1), Y10
	VFMADD231PS Y8, Y10, Y4
	VFMADD231PS Y9, Y10, Y5
	VBROADCASTSS (R13)(CX*1), Y10
	VFMADD231PS Y8, Y10, Y6
	VFMADD231PS Y9, Y10, Y7
	ADDQ R9, BX
	ADDQ $4, CX
	JNZ  tile4loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y2, (DI)
	VMOVUPS Y3, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y4, (DI)
	VMOVUPS Y5, 32(DI)
	ADDQ    R9, DI
	VMOVUPS Y6, (DI)
	VMOVUPS Y7, 32(DI)
	ADDQ    $64, R10
	CMPQ    R10, R15
	JB      tile4
	JMP     next4

edge4:
	STRIP4
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3

	PCALIGN $64
edge4loop:
	VMOVUPS (BX), Y8
	VBROADCASTSS (SI)(CX*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	VBROADCASTSS (R11)(CX*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y1, Y1
	VBROADCASTSS (R12)(CX*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y2, Y2
	VBROADCASTSS (R13)(CX*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y3, Y3
	ADDQ R9, BX
	ADDQ $4, CX
	JNZ  edge4loop

	VMOVUPS Y0, (DI)
	ADDQ    R9, DI
	VMOVUPS Y1, (DI)
	ADDQ    R9, DI
	VMOVUPS Y2, (DI)
	ADDQ    R9, DI
	VMOVUPS Y3, (DI)

next4:
	LEAQ (DX)(R9*4), DX
	LEAQ (AX)(R8*4), AX
	SUBQ $4, R14
	JMP  strip4

rows1:
	TESTQ R14, R14
	JZ    done

row1:
	XORQ R10, R10

tile1:
	MOVQ R15, CX
	SUBQ R10, CX
	CMPQ CX, $64
	JB   edge1
	ROW1
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

	PCALIGN $64
tile1loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	VBROADCASTSS (SI)(CX*1), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	ADDQ R9, BX
	ADDQ $4, CX
	JNZ  tile1loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	ADDQ    $64, R10
	CMPQ    R10, R15
	JB      tile1
	JMP     next1

edge1:
	ROW1
	VXORPS Y0, Y0, Y0

	PCALIGN $64
edge1loop:
	VMOVUPS (BX), Y8
	VBROADCASTSS (SI)(CX*1), Y10
	VMULPS Y8, Y10, Y11
	VADDPS Y11, Y0, Y0
	ADDQ R9, BX
	ADDQ $4, CX
	JNZ  edge1loop

	VMOVUPS Y0, (DI)

next1:
	ADDQ R9, DX
	ADDQ R8, AX
	DECQ R14
	JNZ  row1

done:
	VZEROUPPER
	RET
