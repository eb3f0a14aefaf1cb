#include "textflag.h"

// The Ttm fiber body behind fiberKernel.ttmFibers (DESIGN.md §25),
// bit-identical to its Go loop: per fiber and per pass of sixteen
// columns (Y0, Y1), then eight (Y0) when r&8, the accumulators start at
// +0 (VXORPS); for each non-zero in order the value is broadcast
// (VBROADCASTSS), multiplied by the U row (VMULPS, the value as first
// operand) and added to the accumulators (VADDPS, the accumulator as
// first operand). No FMA. The row is stored once per pass. The body
// computes columns [0, r&^7) of fibers [lo, hi); the Go loop computes
// the others.
//
// Bounds: before it writes a fiber the body checks that the output row
// fits, (f+1)·r ≤ len(out); that a non-empty fiber's range
// fptr[f]..fptr[f+1] lies in [0, len(vals)]; and, per non-zero, that its
// U row fits, k < len(ud)/r, which is k·r + r ≤ len(ud). It returns the
// first fiber that fails (hi if none) with nothing of that fiber
// written: every pass reads the same non-zeros, so a bad one fails the
// first pass, before its store. The caller has checked that
// 0 ≤ lo ≤ hi < len(fptr), len(kInd) = len(vals) and 8 ≤ r ≤ 2^16, so
// no product wraps.
//
// With stream set the rows are written with streaming stores (VMOVNTPS),
// which skip the read for ownership of the output's lines and leave them
// out of the caches, and the body ends with SFENCE so that the caller's
// next store is ordered after them. VMOVNTPS faults on an address that is
// not 32-byte aligned, so the body clears stream itself unless out's base
// and the row length r·4 both are.
//
// SI fptr, DX kInd, R11 vals, BX ud, DI the rows of U, R8 r, R9 the
// fiber f, R12 (r&^15)·4, R13 the column in bytes, CX the non-zero
// cursor, R10 the fiber's end, AX scratch.

// func ttmRows(out []float32, fptr []int64, kInd []uint32, vals, ud []float32, r, lo, hi int, stream bool) int
TEXT ·ttmRows(SB), NOSPLIT, $0-160
	MOVQ  r+120(FP), R8
	LEAQ  (R8*4), AX
	ORQ   out_base+0(FP), AX
	TESTQ $31, AX
	JEQ   aligned
	MOVB  $0, stream+144(FP)

aligned:
	MOVQ  ud_len+104(FP), AX
	XORQ  DX, DX
	DIVQ  R8
	MOVQ  AX, DI
	MOVQ  fptr_base+24(FP), SI
	MOVQ  kInd_base+48(FP), DX
	MOVQ  vals_base+72(FP), R11
	MOVQ  ud_base+96(FP), BX
	MOVQ  R8, R12
	ANDQ  $-16, R12
	SHLQ  $2, R12
	MOVQ  lo+128(FP), R9
	PCALIGN $64

fiber:
	CMPQ  R9, hi+136(FP)
	JGE   done
	LEAQ  1(R9), AX
	IMULQ R8, AX
	CMPQ  AX, out_len+8(FP)
	JA    done
	MOVQ  (SI)(R9*8), CX
	MOVQ  8(SI)(R9*8), R10
	CMPQ  CX, R10
	JGE   columns // empty: the Go loop reads nothing either
	CMPQ  R10, vals_len+80(FP)
	JA    done
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
	JGE   store16

nz16:
	MOVL  (DX)(CX*4), AX
	CMPQ  AX, DI
	JAE   done
	IMULQ R8, AX
	LEAQ  (BX)(AX*4), AX
	VBROADCASTSS (R11)(CX*4), Y2
	VMULPS (AX)(R13*1), Y2, Y3
	VMULPS 32(AX)(R13*1), Y2, Y4
	VADDPS Y3, Y0, Y0
	VADDPS Y4, Y1, Y1
	INCQ  CX
	CMPQ  CX, R10
	JLT   nz16

store16:
	MOVQ  R9, AX
	IMULQ R8, AX
	SHLQ  $2, AX
	ADDQ  out_base+0(FP), AX
	CMPB  stream+144(FP), $0
	JNE   stream16
	VMOVUPS Y0, (AX)(R13*1)
	VMOVUPS Y1, 32(AX)(R13*1)
	JMP   stored16

stream16:
	VMOVNTPS Y0, (AX)(R13*1)
	VMOVNTPS Y1, 32(AX)(R13*1)

stored16:
	ADDQ  $64, R13
	CMPQ  R13, R12
	JNE   sixteen

eight:
	TESTQ $8, R8
	JEQ   next
	VXORPS Y0, Y0, Y0
	MOVQ  (SI)(R9*8), CX
	CMPQ  CX, R10
	JGE   store8

nz8:
	MOVL  (DX)(CX*4), AX
	CMPQ  AX, DI
	JAE   done
	IMULQ R8, AX
	LEAQ  (BX)(AX*4), AX
	VBROADCASTSS (R11)(CX*4), Y2
	VMULPS (AX)(R13*1), Y2, Y3
	VADDPS Y3, Y0, Y0
	INCQ  CX
	CMPQ  CX, R10
	JLT   nz8

store8:
	MOVQ  R9, AX
	IMULQ R8, AX
	SHLQ  $2, AX
	ADDQ  out_base+0(FP), AX
	CMPB  stream+144(FP), $0
	JNE   stream8
	VMOVUPS Y0, (AX)(R13*1)
	JMP   next

stream8:
	VMOVNTPS Y0, (AX)(R13*1)

next:
	INCQ  R9
	JMP   fiber

done:
	MOVQ  R9, ret+152(FP)
	CMPB  stream+144(FP), $0
	JEQ   return
	SFENCE

return:
	VZEROUPPER
	RET
