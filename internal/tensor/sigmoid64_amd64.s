// AVX2+FMA float64 logistic kernel: dst[i] = 1/(1+exp(−(a[i]+b[i]))), four
// lanes a step, equal to the Go expression by Float64bits.
//
// The exp is math.Exp's own: the avxfma path of $GOROOT/src/math/exp_amd64.s
// (Shibata's ISC'10 method) replayed instruction for instruction, each scalar
// MULSD / VADDSD / VFMADD…SD / CVTSD2SL becoming its packed twin. Every one of
// them rounds once, correctly, per lane, so every lane gets the scalar bits:
//
//	k  = round(t·log2e)               VCVTPD2DQ rounds through MXCSR like
//	                                  CVTSD2SL — never the truncating VCVTTPD2DQ
//	s  = (t − k·ln2u − k·ln2l)·1/16   two VFNMADD231PD
//	p  = Horner over Go's nine constants, VFMADD213PD, ending in +1
//	y  = s·p, then y = y·(y+2) four times, the last one fused with its +1
//	eᵗ = y·2ᵏ                         2ᵏ built as (k+1023)<<52
//
// followed by the Go expression's own VADDPD 1 and VDIVPD. The scalar code
// branches for NaN, ±Inf, overflow and denormal results; none of those
// branches can be taken while |t| ≤ 708, so the kernel takes only groups whose
// four |a+b| are ≤ 708 (LE_OQ: a NaN fails) and returns at the first group
// that is not, for Go to finish.
//
// math.Exp runs this sequence only when internal/cpu reports AVX and FMA,
// which GODEBUG can turn off; expFMA (f32gemm_amd64.go) probes that at init.

#include "textflag.h"

#define LOG2E 1.4426950408889634073599246810018920
#define LN2U 0.69314718055966295651160180568695068359375
#define LN2L 0.28235290563031577122588448175013436025525412068e-12

DATA sig64const<>+0(SB)/8, $0x8000000000000000 // sign bit
DATA sig64const<>+8(SB)/8, $708.0
DATA sig64const<>+16(SB)/8, $LOG2E
DATA sig64const<>+24(SB)/8, $LN2U
DATA sig64const<>+32(SB)/8, $LN2L
DATA sig64const<>+40(SB)/8, $0.0625
DATA sig64const<>+48(SB)/8, $2.0
DATA sig64const<>+56(SB)/8, $1.0
DATA sig64const<>+64(SB)/8, $0.5
// exprodata+24 … +64 of exp_amd64.s
DATA sig64const<>+72(SB)/8, $1.6666666666666666667e-1
DATA sig64const<>+80(SB)/8, $4.1666666666666666667e-2
DATA sig64const<>+88(SB)/8, $8.3333333333333333333e-3
DATA sig64const<>+96(SB)/8, $1.3888888888888888889e-3
DATA sig64const<>+104(SB)/8, $1.9841269841269841270e-4
DATA sig64const<>+112(SB)/8, $2.4801587301587301587e-5
DATA sig64const<>+120(SB)/4, $1023
GLOBL sig64const<>(SB), RODATA|NOPTR, $124

// func sigmoidAdd4f64(dst, a, b *float64, bstep, n uintptr) (done uintptr)
//
// b advances bstep bytes a group: 32, or 0 to add one group of 4 to every
// group. n is a positive multiple of 4; done is how many elements were
// written before the first group out of range (n if none was).
TEXT ·sigmoidAdd4f64(SB), NOSPLIT, $0-48
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), BX
	MOVQ bstep+24(FP), R8
	MOVQ n+32(FP), CX
	XORQ DX, DX
	VBROADCASTSD sig64const<>+0(SB), Y15
	VBROADCASTSD sig64const<>+8(SB), Y14
	VBROADCASTSD sig64const<>+16(SB), Y13
	VBROADCASTSD sig64const<>+24(SB), Y12
	VBROADCASTSD sig64const<>+32(SB), Y11
	VBROADCASTSD sig64const<>+48(SB), Y10
	VBROADCASTSD sig64const<>+56(SB), Y9
	VBROADCASTSD sig64const<>+104(SB), Y8
	VBROADCASTSD sig64const<>+96(SB), Y7
	VBROADCASTSD sig64const<>+88(SB), Y6
	VBROADCASTSD sig64const<>+80(SB), Y5
	VBROADCASTSD sig64const<>+72(SB), Y4

sig64loop:
	VMOVUPD (SI), Y0
	VADDPD  (BX), Y0, Y0          // x = a + b
	VANDNPD Y0, Y15, Y1           // |x|
	VCMPPD  $0x12, Y14, Y1, Y1    // |x| ≤ 708, ordered
	VMOVMSKPD Y1, AX
	CMPQ    AX, $15
	JNE     sig64done
	VXORPD  Y15, Y0, Y0           // t = −x
	VMULPD  Y13, Y0, Y1
	VCVTPD2DQY Y1, X2             // k = round(t·log2e)
	VCVTDQ2PD X2, Y1
	VFNMADD231PD Y12, Y1, Y0      // t − k·ln2u
	VFNMADD231PD Y11, Y1, Y0      //   − k·ln2l
	VBROADCASTSD sig64const<>+40(SB), Y3
	VMULPD  Y3, Y0, Y0            // s
	VBROADCASTSD sig64const<>+112(SB), Y1
	VFMADD213PD Y8, Y0, Y1
	VFMADD213PD Y7, Y0, Y1
	VFMADD213PD Y6, Y0, Y1
	VFMADD213PD Y5, Y0, Y1
	VFMADD213PD Y4, Y0, Y1
	VBROADCASTSD sig64const<>+64(SB), Y3
	VFMADD213PD Y3, Y0, Y1
	VFMADD213PD Y9, Y0, Y1        // p
	VMULPD  Y1, Y0, Y0            // y = s·p
	VADDPD  Y10, Y0, Y1
	VMULPD  Y1, Y0, Y0            // y·(y+2)
	VADDPD  Y10, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y10, Y0, Y1
	VMULPD  Y1, Y0, Y0
	VADDPD  Y10, Y0, Y1
	VFMADD213PD Y9, Y1, Y0        // y·(y+2) + 1
	VPBROADCASTD sig64const<>+120(SB), X3
	VPADDD  X3, X2, X2
	VPMOVZXDQ X2, Y2
	VPSLLQ  $52, Y2, Y2           // 2ᵏ
	VMULPD  Y2, Y0, Y0            // eᵗ
	VADDPD  Y9, Y0, Y0
	VDIVPD  Y0, Y9, Y0            // 1 / (1 + eᵗ)
	VMOVUPD Y0, (DI)
	ADDQ $32, SI
	ADDQ R8, BX
	ADDQ $32, DI
	ADDQ $4, DX
	CMPQ DX, CX
	JB   sig64loop

sig64done:
	MOVQ DX, done+40(FP)
	VZEROUPPER
	RET
