#include "textflag.h"

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET

// One depth step for C row `row` (accumulators lo, hi): broadcast
// A[p, row], multiply by the two B halves in Y8/Y9, add.
//
// Operand order: when both inputs of an SSE/AVX operation are NaN the
// result is the FIRST source, so which of two different NaNs survives
// depends on it. gemmRef as compiled today multiplies with A first and
// adds with the accumulator first; matching that costs nothing. In Go's
// reversed operand order it is VMULPS b, a, dst and VADDPS product,
// acc, acc.
#define STEP(row, lo, hi) \
	VBROADCASTSS (4*row)(SI), Y10 \
	VMULPS       Y8, Y10, Y11     \
	VMULPS       Y9, Y10, Y12     \
	VADDPS       Y11, lo, lo      \
	VADDPS       Y12, hi, hi

// func gemmMicroAVX2(c []float32, ldc int, ap, bp []float32, kc int, load bool)
//
// The 4×16 micro-tile: Y0..Y7 hold C (row r in Y(2r), Y(2r+1)), Y8/Y9
// one depth step of the B panel. p increases strictly; products are
// rounded by VMULPS before VADDPS adds them (no FMA), exactly as
// gemmMicroGo and gemmRef do it.
TEXT ·gemmMicroAVX2(SB), NOSPLIT, $0-89
	MOVQ    c_base+0(FP), DI
	MOVQ    ldc+24(FP), DX
	MOVQ    ap_base+32(FP), SI
	MOVQ    bp_base+56(FP), BX
	MOVQ    kc+80(FP), CX
	MOVBLZX load+88(FP), AX

	SHLQ $2, DX           // row stride in bytes
	LEAQ (DI)(DX*1), R8   // C row 1
	LEAQ (R8)(DX*1), R9   // C row 2
	LEAQ (R9)(DX*1), R10  // C row 3

	TESTL AX, AX
	JZ    zero
	VMOVUPS (DI), Y0
	VMOVUPS 32(DI), Y1
	VMOVUPS (R8), Y2
	VMOVUPS 32(R8), Y3
	VMOVUPS (R9), Y4
	VMOVUPS 32(R9), Y5
	VMOVUPS (R10), Y6
	VMOVUPS 32(R10), Y7
	JMP     check

zero:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7
	JMP    check

loop:
	VMOVUPS (BX), Y8
	VMOVUPS 32(BX), Y9
	STEP(0, Y0, Y1)
	STEP(1, Y2, Y3)
	STEP(2, Y4, Y5)
	STEP(3, Y6, Y7)
	ADDQ $16, SI
	ADDQ $64, BX
	DECQ CX

check:
	TESTQ CX, CX
	JG    loop

	VMOVUPS Y0, (DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, (R8)
	VMOVUPS Y3, 32(R8)
	VMOVUPS Y4, (R9)
	VMOVUPS Y5, 32(R9)
	VMOVUPS Y6, (R10)
	VMOVUPS Y7, 32(R10)
	VZEROUPPER
	RET
