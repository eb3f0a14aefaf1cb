#include "textflag.h"

// The column bodies behind decodeU32, decodeF32, maxIndex and allFinite
// (DESIGN.md §8 and §26): each takes a whole number of 32-entry blocks,
// at least one, and the Go loops, which are the fallback and the oracle,
// take the rest. The payload is little-endian and so is amd64, so a
// column is decoded by loading its bytes and storing them; the reductions
// are the Go loops' own: the unsigned minimum and maximum of an index
// column, and the unsigned maximum of a value column's sign-less bit
// patterns (v<<1), which is at least 0xFF000000 exactly when a value is
// a NaN or an infinity. DI dst, SI src, CX the blocks' bytes, AX the byte
// offset; Y0–Y3 a block, Y4/Y5 the minima, Y6/Y7 the maxima.

// LOAD reads the block at AX into Y0–Y3.
#define LOAD \
	VMOVDQU (SI)(AX*1), Y0 \
	VMOVDQU 32(SI)(AX*1), Y1 \
	VMOVDQU 64(SI)(AX*1), Y2 \
	VMOVDQU 96(SI)(AX*1), Y3

// STORE writes Y0–Y3 to the block at AX of dst.
#define STORE \
	VMOVDQU Y0, (DI)(AX*1) \
	VMOVDQU Y1, 32(DI)(AX*1) \
	VMOVDQU Y2, 64(DI)(AX*1) \
	VMOVDQU Y3, 96(DI)(AX*1)

// SIGNLESS shifts the sign bit out of every lane of Y0–Y3.
#define SIGNLESS \
	VPSLLD $1, Y0, Y0 \
	VPSLLD $1, Y1, Y1 \
	VPSLLD $1, Y2, Y2 \
	VPSLLD $1, Y3, Y3

// MAXIMA folds Y0–Y3 into the maxima Y6/Y7.
#define MAXIMA \
	VPMAXUD Y0, Y6, Y6 \
	VPMAXUD Y1, Y7, Y7 \
	VPMAXUD Y2, Y6, Y6 \
	VPMAXUD Y3, Y7, Y7

// MINIMA folds Y0–Y3 into the minima Y4/Y5.
#define MINIMA \
	VPMINUD Y0, Y4, Y4 \
	VPMINUD Y1, Y5, Y5 \
	VPMINUD Y2, Y4, Y4 \
	VPMINUD Y3, Y5, Y5

// NEXT closes the block loop at label.
#define NEXT(label) \
	ADDQ $128, AX \
	CMPQ AX, CX \
	JLT  label

// FOLD(OP, ya, yb, xa, r) reduces the lanes of ya and yb with OP into
// r; xa is ya's low half, X15 scratch.
#define FOLD(OP, ya, yb, xa, r) \
	OP           yb, ya, ya \
	VEXTRACTI128 $1, ya, X15 \
	OP           X15, xa, xa \
	VPSHUFD      $0x4E, xa, X15 \
	OP           X15, xa, xa \
	VPSHUFD      $0xB1, xa, X15 \
	OP           X15, xa, xa \
	VMOVD        xa, r

// func decodeU32AVX2(dst []Index, src []byte) (lo, hi Index)
// Copies the len(dst)&^31 u32s at src to dst and returns their minimum and
// maximum. len(dst) ≥ 32, len(src) ≥ 4·len(dst).
TEXT ·decodeU32AVX2(SB), NOSPLIT, $0-56
	MOVQ      dst_base+0(FP), DI
	MOVQ      dst_len+8(FP), CX
	MOVQ      src_base+24(FP), SI
	ANDQ      $-32, CX
	SHLQ      $2, CX
	XORQ      AX, AX
	VPCMPEQD  Y4, Y4, Y4
	VMOVDQU   Y4, Y5
	VPXOR     Y6, Y6, Y6
	VPXOR     Y7, Y7, Y7
	PCALIGN   $64
u32loop:
	LOAD
	STORE
	MINIMA
	MAXIMA
	NEXT(u32loop)
	FOLD(VPMINUD, Y4, Y5, X4, DX)
	FOLD(VPMAXUD, Y6, Y7, X6, BX)
	MOVL      DX, lo+48(FP)
	MOVL      BX, hi+52(FP)
	VZEROUPPER
	RET

// func decodeF32AVX2(dst []Value, src []byte) (top uint32)
// Copies the len(dst)&^31 f32s at src to dst and returns the maximum of
// their bit patterns shifted left by one. len(dst) ≥ 32,
// len(src) ≥ 4·len(dst).
TEXT ·decodeF32AVX2(SB), NOSPLIT, $0-52
	MOVQ      dst_base+0(FP), DI
	MOVQ      dst_len+8(FP), CX
	MOVQ      src_base+24(FP), SI
	ANDQ      $-32, CX
	SHLQ      $2, CX
	XORQ      AX, AX
	VPXOR     Y6, Y6, Y6
	VPXOR     Y7, Y7, Y7
	PCALIGN   $64
f32loop:
	LOAD
	STORE
	SIGNLESS
	MAXIMA
	NEXT(f32loop)
	FOLD(VPMAXUD, Y6, Y7, X6, BX)
	MOVL      BX, top+48(FP)
	VZEROUPPER
	RET

// func maxIndexAVX2(ind []Index) (hi Index)
// Returns the maximum of ind's first len(ind)&^31 entries. len(ind) ≥ 32.
TEXT ·maxIndexAVX2(SB), NOSPLIT, $0-28
	MOVQ      ind_base+0(FP), SI
	MOVQ      ind_len+8(FP), CX
	ANDQ      $-32, CX
	SHLQ      $2, CX
	XORQ      AX, AX
	VPXOR     Y6, Y6, Y6
	VPXOR     Y7, Y7, Y7
	PCALIGN   $64
maxloop:
	LOAD
	MAXIMA
	NEXT(maxloop)
	FOLD(VPMAXUD, Y6, Y7, X6, BX)
	MOVL      BX, hi+24(FP)
	VZEROUPPER
	RET

// func topF32AVX2(vals []Value) (top uint32)
// Returns the maximum of the bit patterns of vals' first len(vals)&^31
// entries shifted left by one. len(vals) ≥ 32.
TEXT ·topF32AVX2(SB), NOSPLIT, $0-28
	MOVQ      vals_base+0(FP), SI
	MOVQ      vals_len+8(FP), CX
	ANDQ      $-32, CX
	SHLQ      $2, CX
	XORQ      AX, AX
	VPXOR     Y6, Y6, Y6
	VPXOR     Y7, Y7, Y7
	PCALIGN   $64
toploop:
	LOAD
	SIGNLESS
	MAXIMA
	NEXT(toploop)
	FOLD(VPMAXUD, Y6, Y7, X6, BX)
	MOVL      BX, top+24(FP)
	VZEROUPPER
	RET
	// topF32AVX2 is the last assembly of tensor's text, and only the
	// readLabel method wrappers the compiler emits (288 bytes) follow it.
	// Padding it to 32 bytes past a multiple of 64 (INT3s, never run)
	// starts hicoo, core and the rest at the offsets mod 64 they have
	// without these bodies, whatever tensor's Go code weighs.
	PCALIGN $64
	LONG $0xCCCCCCCC; LONG $0xCCCCCCCC; LONG $0xCCCCCCCC; LONG $0xCCCCCCCC
	LONG $0xCCCCCCCC; LONG $0xCCCCCCCC; LONG $0xCCCCCCCC; LONG $0xCCCCCCCC
