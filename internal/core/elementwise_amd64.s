#include "textflag.h"

// The element-wise bodies behind tewValues and tsValues (DESIGN.md §18 and
// §20, "SIMD bodies"), bit-identical to their Go loops: each lane is one
// IEEE single-precision operation with x as its first operand, the
// ADDSS/SUBSS/MULSS/DIVSS the Go loops run. No FMA. The callers pass
// slices of one length, at least 32; the bodies compute the first
// len&^31 values and the callers' Go loops the others. DI z, SI x, DX y,
// CX len&^31 in bytes, AX the byte offset, Y8 s.

// PASS sets z = x op b over 32 floats at AX, then closes the loop at
// label: four YMM of x, each combined with its b (one YMM of y, or the
// broadcast s), stored.
#define PASS(OP, b0, b1, b2, b3, label) \
	VMOVUPS (SI)(AX*1), Y0 \
	VMOVUPS 32(SI)(AX*1), Y1 \
	VMOVUPS 64(SI)(AX*1), Y2 \
	VMOVUPS 96(SI)(AX*1), Y3 \
	OP      b0, Y0, Y0 \
	OP      b1, Y1, Y1 \
	OP      b2, Y2, Y2 \
	OP      b3, Y3, Y3 \
	VMOVUPS Y0, (DI)(AX*1) \
	VMOVUPS Y1, 32(DI)(AX*1) \
	VMOVUPS Y2, 64(DI)(AX*1) \
	VMOVUPS Y3, 96(DI)(AX*1) \
	ADDQ    $128, AX \
	CMPQ    AX, CX \
	JLT     label \
	JMP     done

#define TEW(OP, label) PASS(OP, (DX)(AX*1), 32(DX)(AX*1), 64(DX)(AX*1), 96(DX)(AX*1), label)
#define TS(OP, label) PASS(OP, Y8, Y8, Y8, Y8, label)

// ENTRY loads z and x, at the same argument offsets in both signatures.
#define ENTRY \
	MOVQ z_base+0(FP), DI \
	MOVQ z_len+8(FP), CX \
	MOVQ x_base+24(FP), SI \
	ANDQ $-32, CX \
	SHLQ $2, CX \
	XORQ AX, AX

// func tewAVX2(z, x, y []float32, op Op)
// One loop per op; an unknown op writes nothing.
TEXT ·tewAVX2(SB), NOSPLIT, $0-80
	ENTRY
	MOVQ y_base+48(FP), DX
	MOVQ op+72(FP), BX
	CMPQ BX, $1
	JCS  add             // unsigned: op 0
	JEQ  sub
	CMPQ BX, $3
	JCS  mul
	JEQ  div
	RET
	PCALIGN $64
add:
	TEW(VADDPS, add)
	PCALIGN $64
sub:
	TEW(VSUBPS, sub)
	PCALIGN $64
mul:
	TEW(VMULPS, mul)
	PCALIGN $64
div:
	TEW(VDIVPS, div)
done:
	VZEROUPPER
	RET

// func tsAVX2(z, x []float32, s float32, op Op)
// Add for op Add, Mul for any other op, as tsValues.
TEXT ·tsAVX2(SB), NOSPLIT, $0-64
	ENTRY
	VBROADCASTSS s+48(FP), Y8
	CMPQ op+56(FP), $0
	JNE  mul
	PCALIGN $64
add:
	TS(VADDPS, add)
	PCALIGN $64
mul:
	TS(VMULPS, mul)
done:
	VZEROUPPER
	RET
