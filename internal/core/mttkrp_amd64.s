#include "textflag.h"

// The Mttkrp row body behind mttkrpRows' plain arm (DESIGN.md §22),
// bit-identical to its Go loop: per non-zero and column, the value is
// multiplied by each operand's row in slice order (VMULPS, the product
// as first operand), then added once to the output row (VADDPS, the
// output as first operand). No FMA. The body computes columns
// [0, r&^7) of non-zeros [lo, hi), sixteen columns (Y0, Y1) per pass,
// then eight (Y0) when r&8; the Go loop computes the others.
//
// Bounds: before touching a non-zero the body checks every row it will
// read or write, (base+ind)·r + r ≤ len(data), one CMPQ/JA each, and
// returns the first non-zero that fails (hi if none) with nothing of it
// written. The caller has checked that the index and value columns cover
// [lo, hi), that every base is in [0, len(data)] and r ≤ 2^16, so no
// product wraps.
//
// mttkrpOperand[E] is read by offset (TestMttkrpOperandLayout): ind at
// 0, data at 24 (len at 32), base at 48, 56 bytes.
//
// DX dst, SI the first operand, BX one past the last, DI the operand
// cursor, R8 r, R9 the non-zero x, R11 vals, R12 (r&^15)·4, R13 the
// column in bytes, CX the output row, AX and R10 scratch.

// ROW sets AX to the address of the row of non-zero x in the operand at
// P, or returns x when that row does not fit in the operand's data.
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

#define ROWS(LOAD, SCALE) \
	MOVQ  dst+0(FP), DX \
	MOVQ  ops_base+8(FP), SI \
	MOVQ  ops_len+16(FP), BX \
	IMULQ $56, BX \
	ADDQ  SI, BX \
	MOVQ  vals_base+32(FP), R11 \
	MOVQ  r+56(FP), R8 \
	MOVQ  R8, R12 \
	ANDQ  $-16, R12 \
	SHLQ  $2, R12 \
	MOVQ  lo+64(FP), R9 \
	PCALIGN $64 \
nonzero: \
	CMPQ  R9, hi+72(FP) \
	JGE   done \
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
	ADDQ  $56, DI \
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
	ADDQ  $56, DI \
	CMPQ  DI, BX \
	JNE   mul8 \
add8: \
	VMOVUPS (CX)(R13*1), Y2 \
	VADDPS Y0, Y2, Y2 \
	VMOVUPS Y2, (CX)(R13*1) \
next: \
	INCQ  R9 \
	JMP   nonzero \
done: \
	MOVQ  R9, ret+80(FP) \
	VZEROUPPER \
	RET

// func mttkrpRows32(dst *mttkrpOperand[uint32], ops []mttkrpOperand[uint32], vals []float32, r, lo, hi int) int
// COO columns, tiles and ranks: 32-bit row indices.
TEXT ·mttkrpRows32(SB), NOSPLIT, $0-88
	ROWS(MOVL, 4)

// func mttkrpRows8(dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], vals []float32, r, lo, hi int) int
// HiCOO blocks: 8-bit element indices.
TEXT ·mttkrpRows8(SB), NOSPLIT, $0-88
	ROWS(MOVBLZX, 1)
