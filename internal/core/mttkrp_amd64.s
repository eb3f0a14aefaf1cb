#include "textflag.h"

// The Mttkrp row body behind mttkrpRows' plain arm and HiCOO's
// executeBlocks (DESIGN.md §22), bit-identical to their Go loop: per
// non-zero and column, the value is multiplied by each operand's row in
// slice order (VMULPS, the product as first operand), then added once to
// the output row (VADDPS, the output as first operand). No FMA. The body
// computes columns [0, r&^7) of its non-zeros, sixteen columns (Y0, Y1)
// per pass, then eight (Y0) when r&8; the Go loop computes the others.
//
// One, two or three input operands (orders 2–4), each count
// instantiated on its own from one set of macros: the operands are
// loaded once per call, so per non-zero and operand the body does one
// index load, for HiCOO one base add, one compare against the row
// count, one multiply and the VMULPS, and walks no operand list.
//
// Bounds: before touching a non-zero the body checks every row it will
// read or write, base+ind < len(data)/r (unsigned; COO's base is 0), one
// CMPQ/JAE each, and returns the first non-zero that fails with nothing
// of it written. The caller has checked that the index and value
// columns cover the non-zeros and that every HiCOO base is below 2^40,
// so base+ind cannot wrap, and a row that passes lies inside its data,
// so (base+ind)·r·4 cannot either.
//
// mttkrpOperand[E] is read by offset (TestMttkrpOperandLayout): ind at
// 0, data at 24 (len at 32), base at 48, bind at 56, 80 bytes.
//
// Frame: slot s (0 dst, 1–3 the operands in slice order) at 32·s holds
// the base, the row count len(data)/r, the data pointer and the block
// index column; mttkrpBlocks keeps the block's end at 128 and the block
// b at 136 and rewrites the bases per block.
//
// Registers: R9 the non-zero x, R11 vals, R8 r·4, R12 (r&^15)·4, R13 the
// column in bytes; per slot its index column and its row address: DX
// and CX (dst), SI and R10, DI and R14, BX and R15. The registers left
// hold what they can of the frame (REGS1..REGS3). While mttkrpBlocks
// sets a block's bases, R13 holds b, CX the block bits and R10 is
// scratch.

// SLOT copies the record at O(P) into frame slot S. It clobbers AX and
// DX and needs r in R8.
#define SLOT(P, O, S) \
	MOVQ  O+48(P), AX \
	MOVQ  AX, S(SP) \
	MOVQ  O+24(P), AX \
	MOVQ  AX, S+16(SP) \
	MOVQ  O+56(P), AX \
	MOVQ  AX, S+24(SP) \
	MOVQ  O+32(P), AX \
	XORL  DX, DX \
	DIVQ  R8 \
	MOVQ  AX, S+8(SP)

// OPS1..OPS3 fill the operand slots from the list at R13 and load their
// index columns.
#define OPS1 \
	SLOT(R13, 0, 32) \
	MOVQ  0(R13), SI

#define OPS2 \
	OPS1 \
	SLOT(R13, 80, 64) \
	MOVQ  80(R13), DI

#define OPS3 \
	OPS2 \
	SLOT(R13, 160, 96) \
	MOVQ  160(R13), BX

// OPERANDS loads the frame and the registers both entries share.
#define OPERANDS(OPS) \
	MOVQ  r+56(FP), R8 \
	MOVQ  dst+0(FP), R13 \
	SLOT(R13, 0, 0) \
	MOVQ  ops_base+8(FP), R13 \
	OPS \
	MOVQ  dst+0(FP), R13 \
	MOVQ  0(R13), DX \
	MOVQ  vals_base+32(FP), R11 \
	MOVQ  R8, R12 \
	ANDQ  $-16, R12 \
	SHLQ  $2, R12 \
	SHLQ  $2, R8

// CROW and HROW set P to the address of non-zero x's row in a slot
// whose index column is IND, its row count ROWS and its data DATA, or
// return when the row is not below the row count. CROW reads a COO
// slot's 32-bit index (base 0), HROW a HiCOO slot's 8-bit index and adds
// the block's base, at S in the frame.
#define CROW(IND, P, ROWS, DATA) \
	MOVL  (IND)(R9*4), P \
	CMPQ  P, ROWS \
	JAE   done \
	IMULQ R8, P \
	ADDQ  DATA, P

#define HROW(IND, P, S, ROWS, DATA) \
	MOVBLZX (IND)(R9*1), P \
	ADDQ  S(SP), P \
	CMPQ  P, ROWS \
	JAE   done \
	IMULQ R8, P \
	ADDQ  DATA, P

// Per operand count, the registers that hold what the frame does not:
// with one operand the row counts (DI, R14) and the data (AX, BX), with
// two the data (AX, BX, R15), with three dst's data (AX).
#define REGS1 \
	MOVQ  8(SP), DI \
	MOVQ  40(SP), R14 \
	MOVQ  16(SP), AX \
	MOVQ  48(SP), BX

#define REGS2 \
	MOVQ  16(SP), AX \
	MOVQ  48(SP), BX \
	MOVQ  80(SP), R15

#define REGS3 \
	MOVQ  16(SP), AX

#define CROWS1 \
	CROW(DX, CX, DI, AX) \
	CROW(SI, R10, R14, BX)

#define CROWS2 \
	CROW(DX, CX, 8(SP), AX) \
	CROW(SI, R10, 40(SP), BX) \
	CROW(DI, R14, 72(SP), R15)

#define CROWS3 \
	CROW(DX, CX, 8(SP), AX) \
	CROW(SI, R10, 40(SP), 48(SP)) \
	CROW(DI, R14, 72(SP), 80(SP)) \
	CROW(BX, R15, 104(SP), 112(SP))

#define HROWS1 \
	HROW(DX, CX, 0, DI, AX) \
	HROW(SI, R10, 32, R14, BX)

#define HROWS2 \
	HROW(DX, CX, 0, 8(SP), AX) \
	HROW(SI, R10, 32, 40(SP), BX) \
	HROW(DI, R14, 64, 72(SP), R15)

#define HROWS3 \
	HROW(DX, CX, 0, 8(SP), AX) \
	HROW(SI, R10, 32, 40(SP), 48(SP)) \
	HROW(DI, R14, 64, 72(SP), 80(SP)) \
	HROW(BX, R15, 96, 104(SP), 112(SP))

// MUL16_k and MUL8_k multiply Y0 (and Y1) by the operands' rows at
// column R13, in slice order.
#define MUL16_1 \
	VMULPS 32(R10)(R13*1), Y0, Y1 \
	VMULPS (R10)(R13*1), Y0, Y0

#define MUL16_2 \
	MUL16_1 \
	VMULPS (R14)(R13*1), Y0, Y0 \
	VMULPS 32(R14)(R13*1), Y1, Y1

#define MUL16_3 \
	MUL16_2 \
	VMULPS (R15)(R13*1), Y0, Y0 \
	VMULPS 32(R15)(R13*1), Y1, Y1

#define MUL8_1 \
	VMULPS (R10)(R13*1), Y0, Y0

#define MUL8_2 \
	MUL8_1 \
	VMULPS (R14)(R13*1), Y0, Y0

#define MUL8_3 \
	MUL8_2 \
	VMULPS (R15)(R13*1), Y0, Y0

// NONZEROS adds non-zeros x = R9 up to END with the operands of ROWS,
// MUL16 and MUL8, then falls through; the remaining arguments are its
// labels, one set per instantiation.
#define NONZEROS(END, ROWS, MUL16, MUL8, nonzero, sixteen, eight, next, nonzeros) \
	CMPQ  R9, END \
	JGE   nonzeros \
nonzero: \
	ROWS \
	XORQ  R13, R13 \
	TESTQ R12, R12 \
	JEQ   eight \
sixteen: \
	VBROADCASTSS (R11)(R9*4), Y0 \
	MUL16 \
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
	TESTQ $32, R8 \
	JEQ   next \
	VBROADCASTSS (R11)(R9*4), Y0 \
	MUL8 \
	VMOVUPS (CX)(R13*1), Y2 \
	VADDPS Y0, Y2, Y2 \
	VMOVUPS Y2, (CX)(R13*1) \
next: \
	INCQ  R9 \
	CMPQ  R9, END \
	JLT   nonzero \
nonzeros:

// RANGE is mttkrpRows32's body for one operand count.
#define RANGE(OPS, REGS, ROWS, MUL16, MUL8, nonzero, sixteen, eight, next, nonzeros) \
	OPERANDS(OPS) \
	REGS \
	MOVQ  lo+64(FP), R9 \
	PCALIGN $64 \
	NONZEROS(hi+72(FP), ROWS, MUL16, MUL8, nonzero, sixteen, eight, next, nonzeros) \
	JMP   done

// BASE stores block b's base row in slot S, bind[b] << bits.
#define BASE(S) \
	MOVQ  S+24(SP), R10 \
	MOVL  (R10)(R13*4), R10 \
	SHLQ  CX, R10 \
	MOVQ  R10, S(SP)

#define BASES1 \
	BASE(0) \
	BASE(32)

#define BASES2 \
	BASES1 \
	BASE(64)

#define BASES3 \
	BASES2 \
	BASE(96)

// BLOCKS is mttkrpBlocks' body for one operand count.
#define BLOCKS(OPS, REGS, BASES, ROWS, MUL16, MUL8, block, nonzero, sixteen, eight, next, nonzeros) \
	OPERANDS(OPS) \
	REGS \
	MOVQ  lo+64(FP), R13 \
	MOVQ  R13, 136(SP) \
	MOVQ  bptr_base+80(FP), R10 \
	MOVQ  (R10)(R13*8), R9 \
	CMPQ  R9, n+104(FP) \
	JA    done \
	PCALIGN $64 \
block: \
	MOVQ  136(SP), R13 \
	CMPQ  R13, hi+72(FP) \
	JGE   done \
	MOVQ  bptr_base+80(FP), R10 \
	MOVQ  8(R10)(R13*8), R10 \
	CMPQ  R10, n+104(FP) \
	JA    done \
	MOVQ  R10, 128(SP) \
	MOVQ  bits+112(FP), CX \
	BASES \
	NONZEROS(128(SP), ROWS, MUL16, MUL8, nonzero, sixteen, eight, next, nonzeros) \
	MOVQ  128(SP), R9 \
	INCQ  136(SP) \
	JMP   block

// func mttkrpRows32(dst *mttkrpOperand[uint32], ops []mttkrpOperand[uint32], vals []float32, r, lo, hi int) int
// COO columns, tiles and ranks: one block of 32-bit row indices,
// non-zeros [lo, hi), one to three operands.
TEXT ·mttkrpRows32(SB), NOSPLIT, $128-88
	MOVQ  ops_len+16(FP), AX
	CMPQ  AX, $2
	JB    one
	JEQ   two
	RANGE(OPS3, REGS3, CROWS3, MUL16_3, MUL8_3, nz3, sixteen3, eight3, next3, end3)
two:
	RANGE(OPS2, REGS2, CROWS2, MUL16_2, MUL8_2, nz2, sixteen2, eight2, next2, end2)
one:
	RANGE(OPS1, REGS1, CROWS1, MUL16_1, MUL8_1, nz1, sixteen1, eight1, next1, end1)
done:
	MOVQ  R9, ret+80(FP)
	VZEROUPPER
	RET

// func mttkrpBlocks(dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], vals []float32, r, lo, hi int, bptr []int64, n, bits int) (b, x int)
// HiCOO blocks [lo, hi): per block, every slot's base, then its
// non-zeros [bptr[b], bptr[b+1]) over 8-bit element indices, one to
// three operands. A block whose bptr entries are not both in [0, n]
// (unsigned compares) stops the body at x = bptr[b]: bptr[lo] is
// compared on entry, bptr[b+1] per block, and the block's end carries
// over as the next block's start.
TEXT ·mttkrpBlocks(SB), NOSPLIT, $144-136
	MOVQ  ops_len+16(FP), AX
	CMPQ  AX, $2
	JB    one
	JEQ   two
	BLOCKS(OPS3, REGS3, BASES3, HROWS3, MUL16_3, MUL8_3, block3, nz3, sixteen3, eight3, next3, end3)
two:
	BLOCKS(OPS2, REGS2, BASES2, HROWS2, MUL16_2, MUL8_2, block2, nz2, sixteen2, eight2, next2, end2)
one:
	BLOCKS(OPS1, REGS1, BASES1, HROWS1, MUL16_1, MUL8_1, block1, nz1, sixteen1, eight1, next1, end1)
done:
	MOVQ  136(SP), AX
	MOVQ  AX, b+120(FP)
	MOVQ  R9, x+128(FP)
	VZEROUPPER
	RET
