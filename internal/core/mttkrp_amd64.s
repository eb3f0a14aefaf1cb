#include "textflag.h"

// The Mttkrp row body behind mttkrpRows' plain arm and HiCOO's
// executeBlocks (DESIGN.md §22), bit-identical to their Go loop: per
// non-zero and column, the value is multiplied by each operand's row in
// slice order (VMULPS, the product as first operand), then added once to
// the output row (VADDPS, the output as first operand). No FMA. The body
// computes columns [0, r&^7) of its non-zeros, sixteen columns (Y0, Y1)
// per pass, then eight (Y0) when r&8; the Go loop computes the others.
//
// Bounds: before touching a non-zero the body checks every row it will
// read or write, (base+ind)·r + r ≤ len(data), one CMPQ/JA each, and
// returns the first non-zero that fails with nothing of it written. The
// caller has checked that the index and value columns cover the
// non-zeros, that every base is below 2^46 and r ≤ 2^16, so no product
// wraps.
//
// mttkrpOperand[E] is read by offset (TestMttkrpOperandLayout): ind at
// 0, data at 24 (len at 32), base at 48, bind at 56, 80 bytes.
//
// DX dst, SI the first operand, BX one past the last, DI the operand
// cursor, R8 r, R9 the non-zero x, R11 vals, R12 (r&^15)·4, R13 the
// column in bytes, CX the output row, AX and R10 scratch; mttkrpBlocks
// adds R14 the block b and R15 its end, and holds the block bits in CX
// while it sets the bases.

// ROW sets AX to the address of the row of non-zero x in the operand at
// P, or returns when that row does not fit in the operand's data.
// LOAD/SCALE read one index of width SCALE, zero-extended.
#define ROW(P, LOAD, SCALE) \
	MOVQ  0(P), AX \
	LOAD  (AX)(R9*SCALE), AX \
	ADDQ  48(P), AX \
	IMULQ R8, AX \
	LEAQ  (AX)(R8*1), R10 \
	CMPQ  R10, 32(P) \
	JA    done \
	MOVQ  24(P), R10 \
	LEAQ  (R10)(AX*4), AX

// OPERANDS loads the registers both entries share.
#define OPERANDS \
	MOVQ  dst+0(FP), DX \
	MOVQ  ops_base+8(FP), SI \
	MOVQ  ops_len+16(FP), BX \
	IMULQ $80, BX \
	ADDQ  SI, BX \
	MOVQ  vals_base+32(FP), R11 \
	MOVQ  r+56(FP), R8 \
	MOVQ  R8, R12 \
	ANDQ  $-16, R12 \
	SHLQ  $2, R12

// NONZEROS adds non-zeros x = R9 up to END, then falls through.
#define NONZEROS(LOAD, SCALE, END) \
nonzero: \
	CMPQ  R9, END \
	JGE   nonzeros \
	ROW(DX, LOAD, SCALE) \
	MOVQ  AX, CX \
	XORQ  R13, R13 \
	TESTQ R12, R12 \
	JEQ   eight \
sixteen: \
	VBROADCASTSS (R11)(R9*4), Y0 \
	VMOVAPS Y0, Y1 \
	MOVQ  SI, DI \
	CMPQ  DI, BX \
	JEQ   add16 \
mul16: \
	ROW(DI, LOAD, SCALE) \
	VMULPS (AX)(R13*1), Y0, Y0 \
	VMULPS 32(AX)(R13*1), Y1, Y1 \
	ADDQ  $80, DI \
	CMPQ  DI, BX \
	JNE   mul16 \
add16: \
	VMOVUPS (CX)(R13*1), Y2 \
	VMOVUPS 32(CX)(R13*1), Y3 \
	VADDPS Y0, Y2, Y2 \
	VADDPS Y1, Y3, Y3 \
	VMOVUPS Y2, (CX)(R13*1) \
	VMOVUPS Y3, 32(CX)(R13*1) \
	ADDQ  $64, R13 \
	CMPQ  R13, R12 \
	JNE   sixteen \
eight: \
	TESTQ $8, R8 \
	JEQ   next \
	VBROADCASTSS (R11)(R9*4), Y0 \
	MOVQ  SI, DI \
	CMPQ  DI, BX \
	JEQ   add8 \
mul8: \
	ROW(DI, LOAD, SCALE) \
	VMULPS (AX)(R13*1), Y0, Y0 \
	ADDQ  $80, DI \
	CMPQ  DI, BX \
	JNE   mul8 \
add8: \
	VMOVUPS (CX)(R13*1), Y2 \
	VADDPS Y0, Y2, Y2 \
	VMOVUPS Y2, (CX)(R13*1) \
next: \
	INCQ  R9 \
	JMP   nonzero \
nonzeros:

// BASE stores the operand at P's base row of block b, bind[b] << bits.
#define BASE(P) \
	MOVQ  56(P), AX \
	MOVL  (AX)(R14*4), AX \
	SHLQ  CX, AX \
	MOVQ  AX, 48(P)

// func mttkrpRows32(dst *mttkrpOperand[uint32], ops []mttkrpOperand[uint32], vals []float32, r, lo, hi int) int
// COO columns, tiles and ranks: one block of 32-bit row indices,
// non-zeros [lo, hi).
TEXT ·mttkrpRows32(SB), NOSPLIT, $0-88
	OPERANDS
	MOVQ  lo+64(FP), R9
	PCALIGN $64
	NONZEROS(MOVL, 4, hi+72(FP))
done:
	MOVQ  R9, ret+80(FP)
	VZEROUPPER
	RET

// func mttkrpBlocks(dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], vals []float32, r, lo, hi int, bptr []int64, n, bits int) (b, x int)
// HiCOO blocks [lo, hi): per block, every operand's base, then its
// non-zeros [bptr[b], bptr[b+1]) over 8-bit element indices. A block
// whose bptr entries are not both in [0, n] (unsigned compares) stops
// the body at x = bptr[b]: bptr[lo] is compared on entry, bptr[b+1] per
// block, and the block's end carries over as the next block's start.
TEXT ·mttkrpBlocks(SB), NOSPLIT, $0-136
	OPERANDS
	MOVQ  lo+64(FP), R14
	MOVQ  bptr_base+80(FP), AX
	MOVQ  (AX)(R14*8), R9
	CMPQ  R9, n+104(FP)
	JA    done
	PCALIGN $64
block:
	CMPQ  R14, hi+72(FP)
	JGE   done
	MOVQ  bptr_base+80(FP), AX
	MOVQ  8(AX)(R14*8), R15
	CMPQ  R15, n+104(FP)
	JA    done
	MOVQ  bits+112(FP), CX
	BASE(DX)
	MOVQ  SI, DI
	CMPQ  DI, BX
	JEQ   nonzero
bases:
	BASE(DI)
	ADDQ  $80, DI
	CMPQ  DI, BX
	JNE   bases
	NONZEROS(MOVBLZX, 1, R15)
	MOVQ  R15, R9
	INCQ  R14
	JMP   block
done:
	MOVQ  R14, b+120(FP)
	MOVQ  R9, x+128(FP)
	VZEROUPPER
	RET
