// AVX2 float64 GEMM beneath MatMulBlockedInto and MatMulAddInto: one call
// per product.
//
// gemmf64 computes the leading cols columns (a multiple of 8) of a row-major
// product out[r][c] = Σ_p a[r][p]·b[p][c]: 4-row strips by 8-column tiles,
// then the m mod 4 remaining rows by 1×8 tiles. A tile holds all its
// accumulators in YMM registers for the whole k loop; b rows are loaded 8
// doubles (two YMM) at a time and reused across the tile rows, a values are
// broadcast.
//
// Every multiply-add is a VMULPD followed by a VADDPD — never a VFMADD — and
// k ascends, so each element goes through exactly the rounding sequence of
// the scalar `c += a*b` loops in blocked.go: the tiles are bit-identical to
// the scalar kernel, not merely close. That is what lets the training tape,
// the fused float64 scorer and the ragged edges finished in Go share one
// answer to the last bit (TestF64TileMatchesScalar).
//
// Store mode: with add = 0 a tile's sums overwrite out; otherwise each sum,
// finished in its register, is added once to what out holds (out + sum, out
// as the first operand, as `o += c` adds) — the product followed by
// AddInPlace, without the temporary.
//
// Operand a is read through two strides, a row's and a k step's, so the same
// tiles multiply by aᵀ without a transposed copy: a row-major m×k operand is
// (k, 1), the transpose of a row-major k×m one (1, m). The four rows of a
// strip are four base pointers and one shared index register that walks k.
//
// Strides are passed in elements and converted to bytes here. The caller
// (matMulAsm64) guarantees m ≥ 1, k ≥ 1 and cols ≥ 8; the columns past cols
// stay in Go.

#include "textflag.h"

// func gemmf64(out, a, b *float64, m, k, cols, n, ars, aks, add uintptr)
//
// DX and AX walk out and a by strip (or row), R10 is the tile's byte offset
// into a b and out row, R8 and R15 are a's row and k strides in bytes. A
// tile's a rows start one k past their end (SI, R11, R12, R13) and CX counts
// from −k·aks up to 0, so one add steps all four and sets the loop's flags.
// Inside a 4×8 tile, Y0–Y7 accumulate (two YMM a row), Y8/Y9 hold the
// current 8 b values, Y10 the broadcast a value and Y11/Y12 the products on
// their way into the accumulators.
TEXT ·gemmf64(SB), NOSPLIT, $0-80
	MOVQ out+0(FP), DX
	MOVQ a+8(FP), AX
	MOVQ m+24(FP), R14
	MOVQ n+48(FP), R9
	SHLQ $3, R9 // b and out row, bytes
	MOVQ ars+56(FP), R8
	SHLQ $3, R8 // a row, bytes
	MOVQ aks+64(FP), R15
	SHLQ $3, R15 // a k step, bytes

strip4:
	CMPQ R14, $4
	JB   rows1
	XORQ R10, R10

tile4:
	LEAQ (DX)(R10*1), DI
	MOVQ k+32(FP), CX
	IMULQ R15, CX
	LEAQ (AX)(CX*1), SI   // a row 0, one k past its end
	NEGQ CX
	LEAQ (SI)(R8*1), R11  // a row 1
	LEAQ (R11)(R8*1), R12 // a row 2
	LEAQ (R12)(R8*1), R13 // a row 3
	MOVQ b+16(FP), BX
	ADDQ R10, BX
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
	VBROADCASTSD (SI)(CX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	VBROADCASTSD (R11)(CX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y2, Y2
	VADDPD Y12, Y3, Y3
	VBROADCASTSD (R12)(CX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y4, Y4
	VADDPD Y12, Y5, Y5
	VBROADCASTSD (R13)(CX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y6, Y6
	VADDPD Y12, Y7, Y7
	ADDQ R9, BX
	ADDQ R15, CX
	JNZ  tile4loop

	LEAQ (DI)(R9*1), R11 // out rows 1, 2, 3
	LEAQ (R11)(R9*1), R12
	LEAQ (R12)(R9*1), R13
	CMPQ add+72(FP), $0
	JEQ  store4
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y0, Y8, Y0
	VADDPD  Y1, Y9, Y1
	VMOVUPD (R11), Y8
	VMOVUPD 32(R11), Y9
	VADDPD  Y2, Y8, Y2
	VADDPD  Y3, Y9, Y3
	VMOVUPD (R12), Y8
	VMOVUPD 32(R12), Y9
	VADDPD  Y4, Y8, Y4
	VADDPD  Y5, Y9, Y5
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	VADDPD  Y6, Y8, Y6
	VADDPD  Y7, Y9, Y7

store4:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (R11)
	VMOVUPD Y3, 32(R11)
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	VMOVUPD Y6, (R13)
	VMOVUPD Y7, 32(R13)
	ADDQ $64, R10
	MOVQ cols+40(FP), R11
	SHLQ $3, R11
	CMPQ R10, R11
	JB   tile4
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
	LEAQ (DX)(R10*1), DI
	MOVQ k+32(FP), CX
	IMULQ R15, CX
	LEAQ (AX)(CX*1), SI
	NEGQ CX
	MOVQ b+16(FP), BX
	ADDQ R10, BX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

	PCALIGN $32
tile1loop:
	VMOVUPD (BX), Y8
	VMOVUPD 32(BX), Y9
	VBROADCASTSD (SI)(CX*1), Y10
	VMULPD Y8, Y10, Y11
	VMULPD Y9, Y10, Y12
	VADDPD Y11, Y0, Y0
	VADDPD Y12, Y1, Y1
	ADDQ R9, BX
	ADDQ R15, CX
	JNZ  tile1loop

	CMPQ add+72(FP), $0
	JEQ  store1
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	VADDPD  Y0, Y8, Y0
	VADDPD  Y1, Y9, Y1

store1:
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ $64, R10
	MOVQ cols+40(FP), R11
	SHLQ $3, R11
	CMPQ R10, R11
	JB   tile1
	ADDQ R9, DX
	ADDQ R8, AX
	DECQ R14
	JNZ  row1

done:
	VZEROUPPER
	RET
