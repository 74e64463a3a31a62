//go:build amd64 && !purego

#include "textflag.h"

// func cpuHasAVX2() bool
//
// AVX2 is usable when CPUID reports AVX, AVX2 and OSXSAVE, and XCR0 says
// the operating system saves both the XMM and the YMM halves.
TEXT ·cpuHasAVX2(SB), NOSPLIT, $0-1
	MOVB $0, ret+0(FP)
	MOVL $0, AX
	CPUID
	CMPL AX, $7
	JLT  done
	MOVL $1, AX
	CPUID
	ANDL $0x18000000, CX // OSXSAVE (bit 27), AVX (bit 28)
	CMPL CX, $0x18000000
	JNE  done
	MOVL $0, CX
	XGETBV
	ANDL $6, AX          // XCR0: SSE state (bit 1), AVX state (bit 2)
	CMPL AX, $6
	JNE  done
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	BTL  $5, BX          // AVX2
	JCC  done
	MOVB $1, ret+0(FP)
done:
	RET

// func matmulPanelsAVX2(dst, a, b *float64, off *int, m, k, panels, lda, ldd int, acc bool)
//
// The register tile is four dst rows by two four-lane vectors: Y0..Y7
// hold the 4x8 sums for a whole k tile. One step of k reads where its b
// row starts from the off table, loads the row's two vectors once,
// broadcasts one element of each a row, and gives every sum one VMULPD
// and one VADDPD. The multiply is rounded before the add (no FMA
// anywhere in this file), and lane j of a vector only ever meets column
// j of a b row, so each dst element is the scalar sum of its products in
// ascending k, to the bit. Rows left over after the last group of four
// go through the same step one row at a time.
//
// Panels are the outer loop and row groups the inner one, so the 64-byte
// b rows of one panel are reused by every row group while they are hot.
//
//	R10  byte offset of the panel in a dst or b row      R13  its end
//	R11  lda in bytes        R12  ldd in bytes           R8   rows left
//	DI   dst, SI a: first row of the group               DX   b: panel, offset 0
//	AX, BX  a cursors (rows 0-1, rows 2-3)   CX  k countdown
//	R14  off cursor          R9   the step's b row offset, in elements
TEXT ·matmulPanelsAVX2(SB), NOSPLIT, $0-73
	MOVQ lda+56(FP), R11
	MOVQ ldd+64(FP), R12
	MOVQ panels+48(FP), R13
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $6, R13
	XORQ R10, R10

panel:
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	ADDQ R10, DI
	ADDQ R10, DX
	MOVQ m+32(FP), R8
	CMPQ R8, $4
	JLT  tail

rows4:
	LEAQ (DI)(R12*2), AX
	CMPB acc+72(FP), $0
	JNE  load4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	JMP  init4

load4:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1
	VMOVUPD (DI)(R12*1), Y2
	VMOVUPD 32(DI)(R12*1), Y3
	VMOVUPD (AX), Y4
	VMOVUPD 32(AX), Y5
	VMOVUPD (AX)(R12*1), Y6
	VMOVUPD 32(AX)(R12*1), Y7

init4:
	MOVQ SI, AX
	LEAQ (SI)(R11*2), BX
	MOVQ off+24(FP), R14
	MOVQ k+40(FP), CX

step4:
	MOVQ         (R14), R9
	VMOVUPD      (DX)(R9*8), Y8
	VMOVUPD      32(DX)(R9*8), Y9
	VBROADCASTSD (AX), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y1, Y1
	VBROADCASTSD (AX)(R11*1), Y11
	VMULPD       Y8, Y11, Y14
	VADDPD       Y14, Y2, Y2
	VMULPD       Y9, Y11, Y15
	VADDPD       Y15, Y3, Y3
	VBROADCASTSD (BX), Y10
	VMULPD       Y8, Y10, Y12
	VADDPD       Y12, Y4, Y4
	VMULPD       Y9, Y10, Y13
	VADDPD       Y13, Y5, Y5
	VBROADCASTSD (BX)(R11*1), Y11
	VMULPD       Y8, Y11, Y14
	VADDPD       Y14, Y6, Y6
	VMULPD       Y9, Y11, Y15
	VADDPD       Y15, Y7, Y7
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $8, R14
	DECQ         CX
	JNZ          step4

	LEAQ    (DI)(R12*2), AX
	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, (DI)(R12*1)
	VMOVUPD Y3, 32(DI)(R12*1)
	VMOVUPD Y4, (AX)
	VMOVUPD Y5, 32(AX)
	VMOVUPD Y6, (AX)(R12*1)
	VMOVUPD Y7, 32(AX)(R12*1)
	LEAQ    (SI)(R11*4), SI
	LEAQ    (DI)(R12*4), DI
	SUBQ    $4, R8
	CMPQ    R8, $4
	JGE     rows4

tail:
	TESTQ R8, R8
	JZ    next

row1:
	CMPB acc+72(FP), $0
	JNE  load1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	JMP  init1

load1:
	VMOVUPD (DI), Y0
	VMOVUPD 32(DI), Y1

init1:
	MOVQ SI, AX
	MOVQ off+24(FP), R14
	MOVQ k+40(FP), CX

step1:
	MOVQ         (R14), R9
	VBROADCASTSD (AX), Y10
	VMULPD       (DX)(R9*8), Y10, Y12
	VADDPD       Y12, Y0, Y0
	VMULPD       32(DX)(R9*8), Y10, Y13
	VADDPD       Y13, Y1, Y1
	ADDQ         $8, AX
	ADDQ         $8, R14
	DECQ         CX
	JNZ          step1

	VMOVUPD Y0, (DI)
	VMOVUPD Y1, 32(DI)
	ADDQ    R11, SI
	ADDQ    R12, DI
	DECQ    R8
	JNZ     row1

next:
	ADDQ $64, R10
	CMPQ R10, R13
	JLT  panel
	VZEROUPPER
	RET
