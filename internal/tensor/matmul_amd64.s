//go:build amd64 && !purego

#include "textflag.h"

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (xcr0 uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, xcr0+0(FP)
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

// func matmulPanelsAVX512(dst, a, b *float64, off *int, m, k, panels, lda, ldd int, acc bool)
//
// matmulPanelsAVX2 on eight-lane vectors: the register tile is four dst
// rows by two 512-bit vectors, Z0..Z7 holding the 4x16 sums of a pair
// of panels for a whole k tile, and each step gives every sum one VMULPD
// and one VADDPD in ascending k, exactly as there. When panels is odd
// the last panel runs as four rows by one vector (Z0..Z3). Rows left
// over after the last group of four go through the same step one row at
// a time. Only AVX-512F instructions are used, none of them an FMA.
//
// The registers are matmulPanelsAVX2's; R10 steps 128 bytes, a pair of
// panels, at a time, and R9 is free between k loops.
TEXT ·matmulPanelsAVX512(SB), NOSPLIT, $0-73
	MOVQ lda+56(FP), R11
	MOVQ ldd+64(FP), R12
	MOVQ panels+48(FP), R13
	SHLQ $3, R11
	SHLQ $3, R12
	SHLQ $6, R13
	XORQ R10, R10

pair:
	LEAQ 128(R10), R9
	CMPQ R9, R13
	JGT  lone
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	ADDQ R10, DI
	ADDQ R10, DX
	MOVQ m+32(FP), R8
	CMPQ R8, $4
	JLT  tail16

rows16:
	LEAQ (DI)(R12*2), AX
	CMPB acc+72(FP), $0
	JNE  load16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	VPXORQ Z4, Z4, Z4
	VPXORQ Z5, Z5, Z5
	VPXORQ Z6, Z6, Z6
	VPXORQ Z7, Z7, Z7
	JMP    init16

load16:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1
	VMOVUPD (DI)(R12*1), Z2
	VMOVUPD 64(DI)(R12*1), Z3
	VMOVUPD (AX), Z4
	VMOVUPD 64(AX), Z5
	VMOVUPD (AX)(R12*1), Z6
	VMOVUPD 64(AX)(R12*1), Z7

init16:
	MOVQ SI, AX
	LEAQ (SI)(R11*2), BX
	MOVQ off+24(FP), R14
	MOVQ k+40(FP), CX

step16:
	MOVQ         (R14), R9
	VMOVUPD      (DX)(R9*8), Z8
	VMOVUPD      64(DX)(R9*8), Z9
	VBROADCASTSD (AX), Z10
	VMULPD       Z8, Z10, Z12
	VADDPD       Z12, Z0, Z0
	VMULPD       Z9, Z10, Z13
	VADDPD       Z13, Z1, Z1
	VBROADCASTSD (AX)(R11*1), Z11
	VMULPD       Z8, Z11, Z14
	VADDPD       Z14, Z2, Z2
	VMULPD       Z9, Z11, Z15
	VADDPD       Z15, Z3, Z3
	VBROADCASTSD (BX), Z10
	VMULPD       Z8, Z10, Z12
	VADDPD       Z12, Z4, Z4
	VMULPD       Z9, Z10, Z13
	VADDPD       Z13, Z5, Z5
	VBROADCASTSD (BX)(R11*1), Z11
	VMULPD       Z8, Z11, Z14
	VADDPD       Z14, Z6, Z6
	VMULPD       Z9, Z11, Z15
	VADDPD       Z15, Z7, Z7
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $8, R14
	DECQ         CX
	JNZ          step16

	LEAQ    (DI)(R12*2), AX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	VMOVUPD Z2, (DI)(R12*1)
	VMOVUPD Z3, 64(DI)(R12*1)
	VMOVUPD Z4, (AX)
	VMOVUPD Z5, 64(AX)
	VMOVUPD Z6, (AX)(R12*1)
	VMOVUPD Z7, 64(AX)(R12*1)
	LEAQ    (SI)(R11*4), SI
	LEAQ    (DI)(R12*4), DI
	SUBQ    $4, R8
	CMPQ    R8, $4
	JGE     rows16

tail16:
	TESTQ R8, R8
	JZ    next16

row16:
	CMPB acc+72(FP), $0
	JNE  loadrow16
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	JMP    initrow16

loadrow16:
	VMOVUPD (DI), Z0
	VMOVUPD 64(DI), Z1

initrow16:
	MOVQ SI, AX
	MOVQ off+24(FP), R14
	MOVQ k+40(FP), CX

steprow16:
	MOVQ         (R14), R9
	VBROADCASTSD (AX), Z10
	VMULPD       (DX)(R9*8), Z10, Z12
	VADDPD       Z12, Z0, Z0
	VMULPD       64(DX)(R9*8), Z10, Z13
	VADDPD       Z13, Z1, Z1
	ADDQ         $8, AX
	ADDQ         $8, R14
	DECQ         CX
	JNZ          steprow16

	VMOVUPD Z0, (DI)
	VMOVUPD Z1, 64(DI)
	ADDQ    R11, SI
	ADDQ    R12, DI
	DECQ    R8
	JNZ     row16

next16:
	ADDQ $128, R10
	JMP  pair

lone:
	CMPQ R10, R13
	JGE  done
	MOVQ dst+0(FP), DI
	MOVQ a+8(FP), SI
	MOVQ b+16(FP), DX
	ADDQ R10, DI
	ADDQ R10, DX
	MOVQ m+32(FP), R8
	CMPQ R8, $4
	JLT  tail8

rows8:
	LEAQ (DI)(R12*2), AX
	CMPB acc+72(FP), $0
	JNE  load8
	VPXORQ Z0, Z0, Z0
	VPXORQ Z1, Z1, Z1
	VPXORQ Z2, Z2, Z2
	VPXORQ Z3, Z3, Z3
	JMP    init8

load8:
	VMOVUPD (DI), Z0
	VMOVUPD (DI)(R12*1), Z1
	VMOVUPD (AX), Z2
	VMOVUPD (AX)(R12*1), Z3

init8:
	MOVQ SI, AX
	LEAQ (SI)(R11*2), BX
	MOVQ off+24(FP), R14
	MOVQ k+40(FP), CX

step8:
	MOVQ         (R14), R9
	VMOVUPD      (DX)(R9*8), Z8
	VBROADCASTSD (AX), Z10
	VMULPD       Z8, Z10, Z12
	VADDPD       Z12, Z0, Z0
	VBROADCASTSD (AX)(R11*1), Z11
	VMULPD       Z8, Z11, Z13
	VADDPD       Z13, Z1, Z1
	VBROADCASTSD (BX), Z10
	VMULPD       Z8, Z10, Z14
	VADDPD       Z14, Z2, Z2
	VBROADCASTSD (BX)(R11*1), Z11
	VMULPD       Z8, Z11, Z15
	VADDPD       Z15, Z3, Z3
	ADDQ         $8, AX
	ADDQ         $8, BX
	ADDQ         $8, R14
	DECQ         CX
	JNZ          step8

	LEAQ    (DI)(R12*2), AX
	VMOVUPD Z0, (DI)
	VMOVUPD Z1, (DI)(R12*1)
	VMOVUPD Z2, (AX)
	VMOVUPD Z3, (AX)(R12*1)
	LEAQ    (SI)(R11*4), SI
	LEAQ    (DI)(R12*4), DI
	SUBQ    $4, R8
	CMPQ    R8, $4
	JGE     rows8

tail8:
	TESTQ R8, R8
	JZ    done

row8:
	CMPB acc+72(FP), $0
	JNE  loadrow8
	VPXORQ Z0, Z0, Z0
	JMP    initrow8

loadrow8:
	VMOVUPD (DI), Z0

initrow8:
	MOVQ SI, AX
	MOVQ off+24(FP), R14
	MOVQ k+40(FP), CX

steprow8:
	MOVQ         (R14), R9
	VBROADCASTSD (AX), Z10
	VMULPD       (DX)(R9*8), Z10, Z12
	VADDPD       Z12, Z0, Z0
	ADDQ         $8, AX
	ADDQ         $8, R14
	DECQ         CX
	JNZ          steprow8

	VMOVUPD Z0, (DI)
	ADDQ    R11, SI
	ADDQ    R12, DI
	DECQ    R8
	JNZ     row8

done:
	VZEROUPPER
	RET
