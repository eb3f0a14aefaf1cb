#include "textflag.h"

// The Ttv body behind fiberKernel.ttvFibers (DESIGN.md §26),
// bit-identical to its Go loop: eight fibers per step, fiber f+i in YMM
// lane i. Each lane sums its own fiber, 0 + x₀·v[k₀] + x₁·v[k₁] + …, in
// non-zero order: the product with the value as first operand (VMULPS),
// the sum with the accumulator as first operand (VADDPS), no FMA. A step
// first computes the eight lengths from fptr[f..f+8] (VPSUBQ) and then
// takes one of two paths:
//
//   - single-leaf, every length 1: the group's indices and values are
//     contiguous, so two plain loads, one gather of v[k], one product,
//     one sum onto +0;
//   - lanes: for j below the longest length, masked gathers of the index
//     and the value at start+j of the lanes with length > j, a gather of
//     v[k], and acc = active ? acc + x·v : acc (VBLENDVPS).
//
// The eight sums go to out[f..f+8) in one store or, with a perm (a
// length-grouped layout, ttv_layout.go), to out[perm[f+i]] in eight
// scalar stores.
//
// Bounds: a group passes if no length is negative, fptr[f] ≥ 0 and
// fptr[f+8] ≤ len(vals); then every start+j the body reads lies in
// [0, len(vals)). Every index is checked before v[k] is gathered,
// k ≤ len(v)−1 unsigned (VPMINUD + VPCMPEQD; masked-off lanes hold 0),
// and every perm entry before the stores, p ≤ len(out)−1 unsigned. The
// body returns the first fiber of a group that fails a test, with
// nothing of that group written, or hi if every group passes. The caller
// has checked 0 ≤ lo ≤ hi < len(fptr), hi ≤ len(out),
// len(kInd) = len(vals) < 2³¹, 1 ≤ len(v) ≤ 2³¹ and, with a perm,
// hi ≤ len(perm) and len(out) ≤ 2³¹, so every offset, index and perm
// entry fits a signed dword and every store is in out.
//
// DI out, SI fptr, DX kInd, R11 vals, BX v, R9 perm (0 without one), R10
// len(vals), R12 len(v)−1, R8 the group's first fiber f, R13 fptr[f+8];
// CX and AX scratch. Y11 len(out)−1 per dword, Y12 the packing
// permutation, Y13 len(v)−1 per dword, Y14 1 per qword, Y15 all ones
// (the full gather mask, and −1 per dword). On the lane path Y0 holds
// the starts, Y1 the lengths, Y2 j, Y3 the sums and Y4 the active lanes.

DATA ttvPack<>+0(SB)/4, $0
DATA ttvPack<>+4(SB)/4, $2
DATA ttvPack<>+8(SB)/4, $4
DATA ttvPack<>+12(SB)/4, $6
DATA ttvPack<>+16(SB)/4, $0
DATA ttvPack<>+20(SB)/4, $2
DATA ttvPack<>+24(SB)/4, $4
DATA ttvPack<>+28(SB)/4, $6
GLOBL ttvPack<>(SB), RODATA|NOPTR, $32

// func ttvGroups(out []float32, fptr []int64, kInd []uint32, vals, v []float32, perm []int32, lo, hi int) int
TEXT ·ttvGroups(SB), NOSPLIT, $0-168
	MOVQ out_base+0(FP), DI
	MOVQ out_len+8(FP), AX
	DECQ AX
	MOVQ fptr_base+24(FP), SI
	MOVQ kInd_base+48(FP), DX
	MOVQ vals_base+72(FP), R11
	MOVQ vals_len+80(FP), R10
	MOVQ v_base+96(FP), BX
	MOVQ v_len+104(FP), R12
	DECQ R12
	MOVQ perm_base+120(FP), R9
	MOVQ lo+144(FP), R8
	VPCMPEQD Y15, Y15, Y15
	VPSRLQ   $63, Y15, Y14
	MOVQ     R12, X13
	VPBROADCASTD X13, Y13
	MOVQ     AX, X11
	VPBROADCASTD X11, Y11
	VMOVDQU  ttvPack<>(SB), Y12
	PCALIGN  $64

group:
	LEAQ  8(R8), AX
	CMPQ  AX, hi+152(FP)
	JGT   done
	VMOVDQU (SI)(R8*8), Y0    // fptr[f..f+3]
	VMOVDQU 32(SI)(R8*8), Y1  // fptr[f+4..f+7]
	VMOVDQU 8(SI)(R8*8), Y2   // fptr[f+1..f+4]
	VMOVDQU 40(SI)(R8*8), Y3  // fptr[f+5..f+8]
	VPSUBQ  Y0, Y2, Y2        // the lengths of fibers f..f+3
	VPSUBQ  Y1, Y3, Y3        // and f+4..f+7
	VPOR    Y2, Y3, Y4
	VMOVMSKPD Y4, AX
	TESTL AX, AX
	JNE   done                // a negative length
	MOVQ  (SI)(R8*8), CX      // fptr[f]
	TESTQ CX, CX
	JLT   done
	MOVQ  64(SI)(R8*8), R13   // fptr[f+8]
	CMPQ  R13, R10
	JGT   done
	VPCMPEQQ Y14, Y2, Y4
	VPCMPEQQ Y14, Y3, Y5
	VPAND Y4, Y5, Y4
	VMOVMSKPD Y4, AX
	CMPL  AX, $15
	JNE   lanes

	// Single-leaf: fiber f+i is non-zero fptr[f]+i.
	VMOVDQU (DX)(CX*4), Y7
	VPMINUD Y13, Y7, Y10
	VPCMPEQD Y10, Y7, Y10
	VMOVMSKPS Y10, AX
	CMPB  AX, $0xff
	JNE   done
	VMOVUPS (R11)(CX*4), Y8
	VMOVDQA Y15, Y6
	VPXOR Y9, Y9, Y9
	VGATHERDPS Y6, (BX)(Y7*4), Y9
	VMULPS Y9, Y8, Y8
	VXORPS Y3, Y3, Y3
	VADDPS Y8, Y3, Y3
	TESTQ R9, R9
	JNE   scatter
	VMOVUPS Y3, (DI)(R8*4)
	ADDQ  $8, R8
	JMP   group

lanes:
	// Starts and lengths, packed to dwords: fptr[f+8] ≤ len(vals) < 2³¹.
	VPERMD Y0, Y12, Y0
	VPERMD Y1, Y12, Y1
	VINSERTI128 $1, X1, Y0, Y0
	VPERMD Y2, Y12, Y2
	VPERMD Y3, Y12, Y3
	VINSERTI128 $1, X3, Y2, Y1
	VEXTRACTI128 $1, Y1, X4
	VPMAXSD X4, X1, X4
	VPSHUFD $0x4e, X4, X5
	VPMAXSD X5, X4, X4
	VPSHUFD $0xb1, X4, X5
	VPMAXSD X5, X4, X4
	VMOVD X4, AX              // the longest length
	VPXOR  Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	TESTQ AX, AX
	JEQ   lstore

lane:
	VPCMPGTD Y2, Y1, Y4       // active: length > j
	VPADDD Y2, Y0, Y5         // start + j
	VMOVDQA Y4, Y6
	VPXOR Y7, Y7, Y7
	VPGATHERDD Y6, (DX)(Y5*4), Y7
	VPMINUD Y13, Y7, Y10
	VPCMPEQD Y10, Y7, Y10
	VMOVMSKPS Y10, CX
	CMPB  CX, $0xff
	JNE   done
	VMOVDQA Y4, Y6
	VXORPS Y8, Y8, Y8
	VGATHERDPS Y6, (R11)(Y5*4), Y8
	VMOVDQA Y4, Y6
	VXORPS Y9, Y9, Y9
	VGATHERDPS Y6, (BX)(Y7*4), Y9
	VMULPS Y9, Y8, Y8
	VADDPS Y8, Y3, Y9
	VBLENDVPS Y4, Y9, Y3, Y3
	VPSUBD Y15, Y2, Y2        // j+1
	DECQ  AX
	JNE   lane

lstore:
	// Y3 holds the sums of fibers f..f+7.
	TESTQ R9, R9
	JNE   scatter
	VMOVUPS Y3, (DI)(R8*4)
	ADDQ  $8, R8
	JMP   group

scatter:
	VMOVDQU (R9)(R8*4), Y7    // perm[f..f+7]
	VPMINUD Y11, Y7, Y10
	VPCMPEQD Y10, Y7, Y10
	VMOVMSKPS Y10, AX
	CMPB  AX, $0xff
	JNE   done
	VEXTRACTI128 $1, Y7, X9
	VEXTRACTI128 $1, Y3, X8
	VMOVD X7, AX
	VMOVSS X3, (DI)(AX*4)
	VPEXTRD $1, X7, AX
	VEXTRACTPS $1, X3, (DI)(AX*4)
	VPEXTRD $2, X7, AX
	VEXTRACTPS $2, X3, (DI)(AX*4)
	VPEXTRD $3, X7, AX
	VEXTRACTPS $3, X3, (DI)(AX*4)
	VMOVD X9, AX
	VMOVSS X8, (DI)(AX*4)
	VPEXTRD $1, X9, AX
	VEXTRACTPS $1, X8, (DI)(AX*4)
	VPEXTRD $2, X9, AX
	VEXTRACTPS $2, X8, (DI)(AX*4)
	VPEXTRD $3, X9, AX
	VEXTRACTPS $3, X8, (DI)(AX*4)
	ADDQ  $8, R8
	JMP   group

done:
	MOVQ  R8, ret+160(FP)
	VZEROUPPER
	RET
