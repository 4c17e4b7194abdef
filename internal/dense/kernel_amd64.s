//go:build amd64 && !purego

#include "textflag.h"

// func hasAVX2FMA() bool
//
// True when CPUID reports FMA3 + AVX + OSXSAVE (leaf 1 ECX bits
// 12/27/28), XCR0 shows the OS saves xmm+ymm state (XGETBV bits 1-2),
// and leaf 7 EBX bit 5 reports AVX2.
TEXT ·hasAVX2FMA(SB), NOSPLIT, $0-1
	// Max standard leaf must cover leaf 7.
	XORL AX, AX
	XORL CX, CX
	CPUID
	CMPL AX, $7
	JL   no

	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, BX
	ANDL $(1<<12 | 1<<27 | 1<<28), BX
	CMPL BX, $(1<<12 | 1<<27 | 1<<28)
	JNE  no

	XORL CX, CX
	XGETBV
	ANDL $6, AX
	CMPL AX, $6
	JNE  no

	MOVL $7, AX
	XORL CX, CX
	CPUID
	ANDL $(1<<5), BX
	JZ   no

	MOVB $1, ret+0(FP)
	RET

no:
	MOVB $0, ret+0(FP)
	RET

// func microKernel8x4Asm(kb int, ap, bp, acc *float64)
//
// 8x4 GEMM micro-kernel: acc[r][c] = sum_p ap[p*8+r] * bp[p*4+c].
// Y0-Y7 hold one 4-wide row of the accumulator each; per k-step one
// vector load of b's row and eight broadcast+FMA pairs. kb > 0.
TEXT ·microKernel8x4Asm(SB), NOSPLIT, $0-32
	MOVQ kb+0(FP), CX
	MOVQ ap+8(FP), SI
	MOVQ bp+16(FP), DX
	MOVQ acc+24(FP), DI

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

loop:
	VMOVUPD      (DX), Y8
	VBROADCASTSD (SI), Y9
	VBROADCASTSD 8(SI), Y10
	VBROADCASTSD 16(SI), Y11
	VBROADCASTSD 24(SI), Y12
	VFMADD231PD  Y8, Y9, Y0
	VFMADD231PD  Y8, Y10, Y1
	VFMADD231PD  Y8, Y11, Y2
	VFMADD231PD  Y8, Y12, Y3
	VBROADCASTSD 32(SI), Y13
	VBROADCASTSD 40(SI), Y14
	VBROADCASTSD 48(SI), Y15
	VBROADCASTSD 56(SI), Y9
	VFMADD231PD  Y8, Y13, Y4
	VFMADD231PD  Y8, Y14, Y5
	VFMADD231PD  Y8, Y15, Y6
	VFMADD231PD  Y8, Y9, Y7
	ADDQ         $64, SI
	ADDQ         $32, DX
	DECQ         CX
	JNE          loop

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VZEROUPPER
	RET

// func microDot4Asm(kb int, a0, a1, a2, a3 *float64, sa int, b *float64, sb int, acc *[4]float64)
//
// Four independent k-length dot products sharing one op(B) column:
// acc[r] = sum_p ar[p·sa/8] · b[p·sb/8], each accumulated as a single
// VFMADD231SD chain in ascending p — the same per-element operation
// sequence the packed 8x4 kernel performs, so a column computed here is
// bitwise identical to the same column of a gemmPacked call. sa and sb
// are byte strides. kb > 0.
TEXT ·microDot4Asm(SB), NOSPLIT, $0-72
	MOVQ kb+0(FP), CX
	MOVQ a0+8(FP), SI
	MOVQ a1+16(FP), R8
	MOVQ a2+24(FP), R9
	MOVQ a3+32(FP), R10
	MOVQ sa+40(FP), R11
	MOVQ b+48(FP), DX
	MOVQ sb+56(FP), R12
	MOVQ acc+64(FP), DI

	VXORPD X0, X0, X0
	VXORPD X1, X1, X1
	VXORPD X2, X2, X2
	VXORPD X3, X3, X3

dotloop:
	VMOVSD      (DX), X8
	VMOVSD      (SI), X9
	VMOVSD      (R8), X10
	VMOVSD      (R9), X11
	VMOVSD      (R10), X12
	VFMADD231SD X8, X9, X0
	VFMADD231SD X8, X10, X1
	VFMADD231SD X8, X11, X2
	VFMADD231SD X8, X12, X3
	ADDQ        R11, SI
	ADDQ        R11, R8
	ADDQ        R11, R9
	ADDQ        R11, R10
	ADDQ        R12, DX
	DECQ        CX
	JNE         dotloop

	VMOVSD X0, (DI)
	VMOVSD X1, 8(DI)
	VMOVSD X2, 16(DI)
	VMOVSD X3, 24(DI)
	VZEROUPPER
	RET

// func dotAsm(x, y *float64, n int) float64
//
// Returns sum_i x[i]·y[i] over the first n&^3 elements: four 4-wide
// VFMADD231PD accumulators over blocks of 16, then one accumulator over
// blocks of 4, summed lane-wise at the end. The caller adds the last
// n&3 products. Unaligned loads: the result depends on n alone, never
// on where the slices sit in memory.
TEXT ·dotAsm(SB), NOSPLIT, $0-32
	MOVQ x+0(FP), SI
	MOVQ y+8(FP), DI
	MOVQ n+16(FP), CX

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3

	MOVQ CX, DX
	SHRQ $4, DX
	JZ   dot4

dot16:
	VMOVUPD     (SI), Y4
	VMOVUPD     32(SI), Y5
	VMOVUPD     64(SI), Y6
	VMOVUPD     96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        DX
	JNZ         dot16

dot4:
	ANDQ $15, CX
	SHRQ $2, CX
	JZ   dotsum

dot4loop:
	VMOVUPD     (SI), Y4
	VFMADD231PD (DI), Y4, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         dot4loop

dotsum:
	VADDPD       Y1, Y0, Y0
	VADDPD       Y3, Y2, Y2
	VADDPD       Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD       X1, X0, X0
	VUNPCKHPD    X0, X0, X1
	VADDSD       X1, X0, X0
	VMOVSD       X0, ret+24(FP)
	VZEROUPPER
	RET

// func axpyAsm(alpha float64, x, y *float64, n int)
//
// y[i] += alpha·x[i] as one VFMADD231PD per element over the first n&^3
// elements, 16 per iteration, then 4 per iteration. The caller updates
// the last n&3. x and y must not overlap.
TEXT ·axpyAsm(SB), NOSPLIT, $0-32
	VBROADCASTSD alpha+0(FP), Y15
	MOVQ         x+8(FP), SI
	MOVQ         y+16(FP), DI
	MOVQ         n+24(FP), CX

	MOVQ CX, DX
	SHRQ $4, DX
	JZ   axpy4

axpy16:
	VMOVUPD     (DI), Y0
	VMOVUPD     32(DI), Y1
	VMOVUPD     64(DI), Y2
	VMOVUPD     96(DI), Y3
	VFMADD231PD (SI), Y15, Y0
	VFMADD231PD 32(SI), Y15, Y1
	VFMADD231PD 64(SI), Y15, Y2
	VFMADD231PD 96(SI), Y15, Y3
	VMOVUPD     Y0, (DI)
	VMOVUPD     Y1, 32(DI)
	VMOVUPD     Y2, 64(DI)
	VMOVUPD     Y3, 96(DI)
	ADDQ        $128, SI
	ADDQ        $128, DI
	DECQ        DX
	JNZ         axpy16

axpy4:
	ANDQ $15, CX
	SHRQ $2, CX
	JZ   axpydone

axpy4loop:
	VMOVUPD     (DI), Y0
	VFMADD231PD (SI), Y15, Y0
	VMOVUPD     Y0, (DI)
	ADDQ        $32, SI
	ADDQ        $32, DI
	DECQ        CX
	JNZ         axpy4loop

axpydone:
	VZEROUPPER
	RET

// func rotAsm(c, s float64, x, y *float64, n int)
//
// The plane rotation (x, y) ← (c·x − s·y, s·x + c·y) over the first n&^3
// elements, 8 per iteration, then 4: each output is one rounded product
// and one fused multiply-add (VFMSUB231PD / VFMADD231PD). The caller
// rotates the last n&3. x and y must not overlap.
TEXT ·rotAsm(SB), NOSPLIT, $0-40
	VBROADCASTSD c+0(FP), Y14
	VBROADCASTSD s+8(FP), Y15
	MOVQ         x+16(FP), SI
	MOVQ         y+24(FP), DI
	MOVQ         n+32(FP), CX

	MOVQ CX, DX
	SHRQ $3, DX
	JZ   rot4

rot8:
	VMOVUPD     (SI), Y0
	VMOVUPD     (DI), Y1
	VMOVUPD     32(SI), Y2
	VMOVUPD     32(DI), Y3
	VMULPD      Y1, Y15, Y4
	VMULPD      Y1, Y14, Y5
	VMULPD      Y3, Y15, Y6
	VMULPD      Y3, Y14, Y7
	VFMSUB231PD Y0, Y14, Y4
	VFMADD231PD Y0, Y15, Y5
	VFMSUB231PD Y2, Y14, Y6
	VFMADD231PD Y2, Y15, Y7
	VMOVUPD     Y4, (SI)
	VMOVUPD     Y5, (DI)
	VMOVUPD     Y6, 32(SI)
	VMOVUPD     Y7, 32(DI)
	ADDQ        $64, SI
	ADDQ        $64, DI
	DECQ        DX
	JNZ         rot8

rot4:
	TESTQ $4, CX
	JZ    rotdone
	VMOVUPD     (SI), Y0
	VMOVUPD     (DI), Y1
	VMULPD      Y1, Y15, Y4
	VMULPD      Y1, Y14, Y5
	VFMSUB231PD Y0, Y14, Y4
	VFMADD231PD Y0, Y15, Y5
	VMOVUPD     Y4, (SI)
	VMOVUPD     Y5, (DI)

rotdone:
	VZEROUPPER
	RET
