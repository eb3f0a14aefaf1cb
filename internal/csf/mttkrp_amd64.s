#include "textflag.h"

// The tree Mttkrp bodies behind MttkrpPlan.sumFibers and chainNodes
// (DESIGN.md §23, "The AVX2 bodies"), bit-identical to the Go loops
// fibers and chains: per pass of sixteen columns (Y0, Y1), then eight
// (Y0) when r&8, the sums start at +0 (VXORPS); each leaf's value is
// broadcast (VBROADCASTSS) and multiplied into its factor row (VMULPS,
// the value as first operand); chains multiplies that by the fiber's row
// (VMULPS, the row as first operand); the sums add it (VADDPS, the sum
// as first operand); and the pass adds the upper row times the sums to
// dst (VMULPS with the row first, then VADDPS with dst first). No FMA.
// The bodies compute columns [0, r&^7); the Go loops compute the others.
//
// Bounds: before it writes a fiber (fibersAVX2) or a node (chainsAVX2)
// the body checks every index that unit reads, one CMPQ/J* each, and
// returns the first unit that fails (hi if none) with nothing of it
// written: every pass reads the same rows, so a bad one fails the first
// pass, before its store. The caller has checked hi < len(ptr),
// hi ≤ len(ids), len(dst) ≥ r, 8 ≤ r ≤ 2^16 and len(kid) == len(vals),
// and rows, kuRows and fuRows are at most their factors' rows: a row
// index below them, times r·4, is an offset inside the factor.
//
// treeBody is read by offset (TestTreeBodyLayout): kid at 0 (len at 8),
// vals at 24, ku at 48, kuRows at 72, fptr at 80 (len at 88), fid at 104
// (len at 112), fu at 128, fuRows at 152.

// func fibersAVX2(b *treeBody, ptr []int64, ids []uint32, u []float32, rows int, dst []float32, r, lo, hi int) int
//
// DI b, SI ptr, BX kid, R11 vals, DX dst, R8 r·4, R12 (r&^15)·4, R9 the
// fiber f, R13 the column in bytes, CX the leaf, R10 the fiber's end, AX
// scratch.
TEXT ·fibersAVX2(SB), NOSPLIT, $0-144
	MOVQ  b+0(FP), DI
	MOVQ  ptr_base+8(FP), SI
	MOVQ  0(DI), BX
	MOVQ  24(DI), R11
	MOVQ  dst_base+88(FP), DX
	MOVQ  r+112(FP), R8
	SHLQ  $2, R8
	MOVQ  R8, R12
	ANDQ  $-64, R12
	MOVQ  lo+120(FP), R9
	PCALIGN $64

fiber:
	CMPQ  R9, hi+128(FP)
	JGE   done
	MOVQ  ids_base+32(FP), AX
	MOVL  (AX)(R9*4), AX
	CMPQ  AX, rows+80(FP)
	JAE   done    // the fiber's row
	MOVQ  (SI)(R9*8), CX
	MOVQ  8(SI)(R9*8), R10
	CMPQ  CX, R10
	JGE   columns // empty: the Go loop reads no leaf either
	CMPQ  R10, 8(DI)
	JA    done    // past the leaves
	CMPQ  CX, R10
	JAE   done    // a negative start

columns:
	XORQ  R13, R13
	TESTQ R12, R12
	JEQ   eight

sixteen:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	MOVQ  (SI)(R9*8), CX
	CMPQ  CX, R10
	JGE   add16

leaf16:
	MOVL  (BX)(CX*4), AX
	CMPQ  AX, 72(DI)
	JAE   done    // the leaf's row
	IMULQ R8, AX
	ADDQ  48(DI), AX
	VBROADCASTSS (R11)(CX*4), Y2
	VMULPS (AX)(R13*1), Y2, Y3
	VMULPS 32(AX)(R13*1), Y2, Y4
	VADDPS Y3, Y0, Y0
	VADDPS Y4, Y1, Y1
	INCQ  CX
	CMPQ  CX, R10
	JLT   leaf16

add16:
	MOVQ  ids_base+32(FP), AX
	MOVL  (AX)(R9*4), AX
	IMULQ R8, AX
	ADDQ  u_base+56(FP), AX
	VMOVUPS (AX)(R13*1), Y2
	VMOVUPS 32(AX)(R13*1), Y3
	VMULPS Y0, Y2, Y2
	VMULPS Y1, Y3, Y3
	VMOVUPS (DX)(R13*1), Y4
	VMOVUPS 32(DX)(R13*1), Y5
	VADDPS Y2, Y4, Y4
	VADDPS Y3, Y5, Y5
	VMOVUPS Y4, (DX)(R13*1)
	VMOVUPS Y5, 32(DX)(R13*1)
	ADDQ  $64, R13
	CMPQ  R13, R12
	JNE   sixteen

eight:
	TESTQ $32, R8
	JEQ   next
	VXORPS Y0, Y0, Y0
	MOVQ  (SI)(R9*8), CX
	CMPQ  CX, R10
	JGE   add8

leaf8:
	MOVL  (BX)(CX*4), AX
	CMPQ  AX, 72(DI)
	JAE   done
	IMULQ R8, AX
	ADDQ  48(DI), AX
	VBROADCASTSS (R11)(CX*4), Y2
	VMULPS (AX)(R13*1), Y2, Y3
	VADDPS Y3, Y0, Y0
	INCQ  CX
	CMPQ  CX, R10
	JLT   leaf8

add8:
	MOVQ  ids_base+32(FP), AX
	MOVL  (AX)(R9*4), AX
	IMULQ R8, AX
	ADDQ  u_base+56(FP), AX
	VMOVUPS (AX)(R13*1), Y2
	VMULPS Y0, Y2, Y2
	VMOVUPS (DX)(R13*1), Y4
	VADDPS Y2, Y4, Y4
	VMOVUPS Y4, (DX)(R13*1)

next:
	INCQ  R9
	JMP   fiber

done:
	MOVQ  R9, ret+136(FP)
	VZEROUPPER
	RET

// func chainsAVX2(b *treeBody, ptr []int64, ids []uint32, u []float32, rows int, dst []float32, r, lo, hi int) int
//
// DI b, R9 the node n, R8 r·4, R12 (r&^15)·4, R13 the column in bytes,
// SI &fid[f0], BX &kid[x0], R11 &vals[x0] (f0 the node's first fiber, x0
// its first leaf), R10 its fiber count, CX the fiber, AX and DX scratch.
TEXT ·chainsAVX2(SB), NOSPLIT, $0-144
	MOVQ  b+0(FP), DI
	MOVQ  r+112(FP), R8
	SHLQ  $2, R8
	MOVQ  R8, R12
	ANDQ  $-64, R12
	MOVQ  lo+120(FP), R9
	PCALIGN $64

node:
	CMPQ  R9, hi+128(FP)
	JGE   done
	MOVQ  ptr_base+8(FP), AX
	MOVQ  (AX)(R9*8), SI
	MOVQ  8(AX)(R9*8), R10
	CMPQ  SI, R10
	JA    done    // a negative start or an inverted range
	CMPQ  R10, 88(DI)
	JAE   done    // past the fiber pointers
	CMPQ  R10, 112(DI)
	JA    done    // past the fiber rows
	MOVQ  80(DI), AX
	MOVQ  (AX)(SI*8), BX
	MOVQ  (AX)(R10*8), DX
	SUBQ  SI, R10
	SUBQ  BX, DX
	CMPQ  DX, R10
	JNE   done    // not one leaf per fiber: fptr[f1] − fptr[f0] ≠ f1 − f0
	ADDQ  BX, DX
	CMPQ  BX, DX
	JA    done    // a negative start
	CMPQ  DX, 8(DI)
	JA    done    // past the leaves
	MOVQ  ids_base+32(FP), AX
	MOVL  (AX)(R9*4), AX
	CMPQ  AX, rows+80(FP)
	JAE   done    // the node's row
	SHLQ  $2, SI
	ADDQ  104(DI), SI
	SHLQ  $2, BX
	MOVQ  BX, R11
	ADDQ  0(DI), BX
	ADDQ  24(DI), R11
	XORQ  R13, R13
	TESTQ R12, R12
	JEQ   eight

sixteen:
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	XORQ  CX, CX
	CMPQ  CX, R10
	JGE   add16

fiber16:
	MOVL  (SI)(CX*4), AX
	CMPQ  AX, 152(DI)
	JAE   done    // the fiber's row
	IMULQ R8, AX
	ADDQ  128(DI), AX
	MOVL  (BX)(CX*4), DX
	CMPQ  DX, 72(DI)
	JAE   done    // the leaf's row
	IMULQ R8, DX
	ADDQ  48(DI), DX
	VBROADCASTSS (R11)(CX*4), Y2
	VMULPS (DX)(R13*1), Y2, Y3
	VMULPS 32(DX)(R13*1), Y2, Y4
	VMOVUPS (AX)(R13*1), Y5
	VMOVUPS 32(AX)(R13*1), Y6
	VMULPS Y3, Y5, Y3
	VMULPS Y4, Y6, Y4
	VADDPS Y3, Y0, Y0
	VADDPS Y4, Y1, Y1
	INCQ  CX
	CMPQ  CX, R10
	JLT   fiber16

add16:
	MOVQ  ids_base+32(FP), AX
	MOVL  (AX)(R9*4), AX
	IMULQ R8, AX
	ADDQ  u_base+56(FP), AX
	MOVQ  dst_base+88(FP), DX
	VMOVUPS (AX)(R13*1), Y2
	VMOVUPS 32(AX)(R13*1), Y3
	VMULPS Y0, Y2, Y2
	VMULPS Y1, Y3, Y3
	VMOVUPS (DX)(R13*1), Y4
	VMOVUPS 32(DX)(R13*1), Y5
	VADDPS Y2, Y4, Y4
	VADDPS Y3, Y5, Y5
	VMOVUPS Y4, (DX)(R13*1)
	VMOVUPS Y5, 32(DX)(R13*1)
	ADDQ  $64, R13
	CMPQ  R13, R12
	JNE   sixteen

eight:
	TESTQ $32, R8
	JEQ   next
	VXORPS Y0, Y0, Y0
	XORQ  CX, CX
	CMPQ  CX, R10
	JGE   add8

fiber8:
	MOVL  (SI)(CX*4), AX
	CMPQ  AX, 152(DI)
	JAE   done
	IMULQ R8, AX
	ADDQ  128(DI), AX
	MOVL  (BX)(CX*4), DX
	CMPQ  DX, 72(DI)
	JAE   done
	IMULQ R8, DX
	ADDQ  48(DI), DX
	VBROADCASTSS (R11)(CX*4), Y2
	VMULPS (DX)(R13*1), Y2, Y3
	VMOVUPS (AX)(R13*1), Y5
	VMULPS Y3, Y5, Y3
	VADDPS Y3, Y0, Y0
	INCQ  CX
	CMPQ  CX, R10
	JLT   fiber8

add8:
	MOVQ  ids_base+32(FP), AX
	MOVL  (AX)(R9*4), AX
	IMULQ R8, AX
	ADDQ  u_base+56(FP), AX
	MOVQ  dst_base+88(FP), DX
	VMOVUPS (AX)(R13*1), Y2
	VMULPS Y0, Y2, Y2
	VMOVUPS (DX)(R13*1), Y4
	VADDPS Y2, Y4, Y4
	VMOVUPS Y4, (DX)(R13*1)

next:
	INCQ  R9
	JMP   node

done:
	MOVQ  R9, ret+136(FP)
	VZEROUPPER
	RET
	// chainsAVX2 is the last function of csf's text; padding it to a
	// multiple of 64 bytes ends that text on a 64-byte boundary, so the
	// code linked after it keeps its offsets mod 64 whatever csf's Go code
	// weighs (DESIGN.md §23, "The AVX2 bodies").
	PCALIGN $64
