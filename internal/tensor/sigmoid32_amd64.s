// AVX2+FMA logistic kernel: dst[i] = 1/(1+exp(-(a[i]+b[i]))), 8 lanes a
// step. The algorithm and every constant are those of sigmoidAddScalar32
// in sigmoid32.go; see there for the derivation. Callers (sigmoidAddAsm32)
// pass n ≥ 8, a multiple of 8; tails stay in Go.

#include "textflag.h"

// float32 bit patterns, in the order the loop's registers are loaded.
DATA sigconst<>+0(SB)/4, $0x42ae0000  // 87
DATA sigconst<>+4(SB)/4, $0xc2ae0000  // -87
DATA sigconst<>+8(SB)/4, $0xbfb8aa3b  // -log2(e)
DATA sigconst<>+12(SB)/4, $0x3f318000 // ln2hi
DATA sigconst<>+16(SB)/4, $0xb95e8083 // ln2lo
DATA sigconst<>+20(SB)/4, $0xbc07f129 // d5
DATA sigconst<>+24(SB)/4, $0x3d2bb277 // d4
DATA sigconst<>+28(SB)/4, $0xbe2aad1a // d3
DATA sigconst<>+32(SB)/4, $0x3efffe85 // d2
DATA sigconst<>+36(SB)/4, $0xbf7ffffb // d1
DATA sigconst<>+40(SB)/4, $0x3f800001 // d0
DATA sigconst<>+44(SB)/4, $0x3f800000 // 1
GLOBL sigconst<>(SB), RODATA|NOPTR, $48

// func sigmoidAdd8f32(dst, a, b *float32, n uintptr)
TEXT ·sigmoidAdd8f32(SB), NOSPLIT, $0-32
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ n+24(FP), CX
	SHRQ $3, CX
	VBROADCASTSS sigconst<>+0(SB), Y15
	VBROADCASTSS sigconst<>+4(SB), Y14
	VBROADCASTSS sigconst<>+8(SB), Y13
	VBROADCASTSS sigconst<>+12(SB), Y12
	VBROADCASTSS sigconst<>+16(SB), Y11
	VBROADCASTSS sigconst<>+20(SB), Y10
	VBROADCASTSS sigconst<>+24(SB), Y9
	VBROADCASTSS sigconst<>+28(SB), Y8
	VBROADCASTSS sigconst<>+32(SB), Y7
	VBROADCASTSS sigconst<>+36(SB), Y6
	VBROADCASTSS sigconst<>+40(SB), Y5
	VBROADCASTSS sigconst<>+44(SB), Y4

sigloop:
	VMOVUPS (SI), Y0
	VADDPS  (BX), Y0, Y0       // x = a + b
	// MIN/MAX return their first operand here when either is NaN, so x must
	// be first for a NaN to survive the clamp.
	VMINPS  Y0, Y15, Y0
	VMAXPS  Y0, Y14, Y0
	VMULPS  Y13, Y0, Y1
	VROUNDPS $8, Y1, Y1        // n = round-to-nearest-even(-x·log2e)
	VFMADD231PS Y12, Y1, Y0    // s = x + n·ln2hi
	VFMADD231PS Y11, Y1, Y0    //       + n·ln2lo
	VMOVAPS Y9, Y2
	VFMADD231PS Y10, Y0, Y2    // q = d5·s + d4
	VFMADD213PS Y8, Y0, Y2     // q = q·s + d3
	VFMADD213PS Y7, Y0, Y2
	VFMADD213PS Y6, Y0, Y2
	VFMADD213PS Y5, Y0, Y2     // q ≈ exp(-s)
	VCVTPS2DQ Y1, Y1
	VPSLLD  $23, Y1, Y1
	VPADDD  Y1, Y2, Y2         // e = q·2ⁿ
	VADDPS  Y4, Y2, Y2
	VDIVPS  Y2, Y4, Y2         // 1 / (1 + e)
	VMOVUPS Y2, (DI)
	ADDQ $32, SI
	ADDQ $32, BX
	ADDQ $32, DI
	DECQ CX
	JNZ  sigloop

	VZEROUPPER
	RET
