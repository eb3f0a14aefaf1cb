#include "textflag.h"

// The dense bodies of the CP-ALS factor update (DESIGN.md §20, "SIMD
// bodies"), bit-identical to the Go loops: every lane starts where they
// start and adds the same products in the same order. The callers check
// the bounds; the Go loops compute the columns from n&^3 on.
// MULADD: acc += a·b lane by lane, the product rounded (VMULPD), then the
// sum (VADDPD), as Go rounds. No FMA: it rounds once. Y14 is scratch.
#define MULADD(a, b, acc) VMULPD a, b, Y14; VADDPD Y14, acc, acc

// func roundRowsAVX2(block, prod, scale []float64, factor []float32, occ []int, n int)
// For r < n&^3 and every row i of occ: with scale, factor[occ[i]·n+r] =
// float32(prod[i·n+r]·scale[r]); then block[i·n+r] = that value widened.
// DI block, SI prod, DX scale (0 without), R12 factor, R8/R9 occ
// cursor/end, R10 n·4, R11 (n&^3)·4, AX the factor row, CX r·4.
TEXT ·roundRowsAVX2(SB), NOSPLIT, $0-128
	MOVQ block_base+0(FP), DI
	MOVQ prod_base+24(FP), SI
	MOVQ scale_base+48(FP), DX
	MOVQ factor_base+72(FP), R12
	MOVQ occ_base+96(FP), R8
	MOVQ occ_len+104(FP), R9
	LEAQ (R8)(R9*8), R9
	MOVQ n+120(FP), R10
	SHLQ $2, R10
	MOVQ R10, R11
	ANDQ $-16, R11
	PCALIGN $64
row:
	CMPQ  R8, R9
	JEQ   done
	MOVQ  (R8), AX
	IMULQ R10, AX
	ADDQ  R12, AX
	XORQ  CX, CX
	PCALIGN $64
col:
	TESTQ      DX, DX
	JEQ        widen
	VMOVUPD    (SI)(CX*2), Y0
	VMULPD     (DX)(CX*2), Y0, Y0
	VCVTPD2PSY Y0, X0
	VMOVUPS    X0, (AX)(CX*1)
widen:
	VCVTPS2PD (AX)(CX*1), Y0
	VMOVUPD   Y0, (DI)(CX*2)
	ADDQ      $16, CX
	CMPQ      CX, R11
	JLT       col
	LEAQ (SI)(R10*2), SI
	LEAQ (DI)(R10*2), DI
	ADDQ $8, R8
	JMP  row
done:
	VZEROUPPER
	RET

// func gramAVX2(g, block []float64, n, cnt int)
// block holds cnt ≥ 1 rows of n float64, row-major. For each band of rows
// p = P..P+3 of g (P = 0, 4, … below n&^3) and column q from P below n&^3:
// g[p·n+q] += Σ_i block[i·n+p]·block[i·n+q] in ascending i — the entries
// and order of gramInto's dot4 loop. Columns go eight at a time (eight
// accumulators), then four. DI g, SI block, R10 n·8, R13 3·n·8, R12 the
// end of block, R11 (n&^3)·8, CX P·8, DX q·8, R8 g's row P, BX g[P][q],
// R9 the row cursor. BAND1/BAND2: band row off/8 against Y8 (and Y9).
#define BAND1(off, acc) VBROADCASTSD off(R9)(CX*1), Y10; MULADD(Y8, Y10, acc)
#define BAND2(off, acc0, acc1) BAND1(off, acc0); MULADD(Y9, Y10, acc1)
TEXT ·gramAVX2(SB), NOSPLIT, $0-64
	MOVQ  g_base+0(FP), DI
	MOVQ  block_base+24(FP), SI
	MOVQ  n+48(FP), R10
	SHLQ  $3, R10
	LEAQ  (R10)(R10*2), R13
	MOVQ  cnt+56(FP), R12
	IMULQ R10, R12
	ADDQ  SI, R12
	MOVQ  R10, R11
	ANDQ  $-32, R11
	XORQ  CX, CX
	MOVQ  DI, R8
	PCALIGN $64
band:
	CMPQ CX, R11
	JGE  done
	MOVQ CX, DX
	PCALIGN $64
pair:
	LEAQ    64(DX), AX
	CMPQ    AX, R11
	JGT     single
	LEAQ    (R8)(DX*1), BX
	VMOVUPD (BX), Y0
	VMOVUPD 32(BX), Y1
	VMOVUPD (BX)(R10*1), Y2
	VMOVUPD 32(BX)(R10*1), Y3
	VMOVUPD (BX)(R10*2), Y4
	VMOVUPD 32(BX)(R10*2), Y5
	VMOVUPD (BX)(R13*1), Y6
	VMOVUPD 32(BX)(R13*1), Y7
	MOVQ    SI, R9
	PCALIGN $64
pairRow:
	VMOVUPD (R9)(DX*1), Y8
	VMOVUPD 32(R9)(DX*1), Y9
	BAND2(0, Y0, Y1)
	BAND2(8, Y2, Y3)
	BAND2(16, Y4, Y5)
	BAND2(24, Y6, Y7)
	ADDQ R10, R9
	CMPQ R9, R12
	JNE  pairRow
	VMOVUPD Y0, (BX)
	VMOVUPD Y1, 32(BX)
	VMOVUPD Y2, (BX)(R10*1)
	VMOVUPD Y3, 32(BX)(R10*1)
	VMOVUPD Y4, (BX)(R10*2)
	VMOVUPD Y5, 32(BX)(R10*2)
	VMOVUPD Y6, (BX)(R13*1)
	VMOVUPD Y7, 32(BX)(R13*1)
	ADDQ    $64, DX
	JMP     pair
single:
	CMPQ    DX, R11
	JGE     nextBand
	LEAQ    (R8)(DX*1), BX
	VMOVUPD (BX), Y0
	VMOVUPD (BX)(R10*1), Y2
	VMOVUPD (BX)(R10*2), Y4
	VMOVUPD (BX)(R13*1), Y6
	MOVQ    SI, R9
	PCALIGN $64
singleRow:
	VMOVUPD (R9)(DX*1), Y8
	BAND1(0, Y0)
	BAND1(8, Y2)
	BAND1(16, Y4)
	BAND1(24, Y6)
	ADDQ R10, R9
	CMPQ R9, R12
	JNE  singleRow
	VMOVUPD Y0, (BX)
	VMOVUPD Y2, (BX)(R10*1)
	VMOVUPD Y4, (BX)(R10*2)
	VMOVUPD Y6, (BX)(R13*1)
nextBand:
	LEAQ (R8)(R10*4), R8
	ADDQ $32, CX
	JMP  band
done:
	VZEROUPPER
	RET

// func mulSquareAVX2(rows, sumsq []float64, src []float32, sq []float64, occ []int, n int)
// For j < n&^3: rows[at·n+j] = Σ_k float64(src[occ[at]·n+k])·sq[k·n+j]
// from +0 in ascending k; sumsq[j] = Σ_at rows[at·n+j]² from +0 in
// ascending at. Columns go sixteen at a time (four accumulators), then
// four, each block over all rows, so its sums of squares stay in registers.
// SI src, DX sq, R10 n·4, R11 n·8, CX the block's first column ·8, DI its
// output row, R8/R9 occ cursor/end, R12/R13 src row cursor/end, AX sq cursor.
TEXT ·mulSquareAVX2(SB), NOSPLIT, $0-128
	MOVQ src_base+48(FP), SI
	MOVQ sq_base+72(FP), DX
	MOVQ n+120(FP), R10
	SHLQ $2, R10
	LEAQ (R10)(R10*1), R11
	XORQ CX, CX
	PCALIGN $64
block16:
	MOVQ R11, BX
	ANDQ $-32, BX
	SUBQ $128, BX        // the last start of a whole sixteen-column block
	CMPQ CX, BX
	JGT  block4
	VXORPD Y9, Y9, Y9
	VXORPD Y10, Y10, Y10
	VXORPD Y11, Y11, Y11
	VXORPD Y12, Y12, Y12
	MOVQ rows_base+0(FP), DI
	ADDQ CX, DI
	MOVQ occ_base+96(FP), R8
	MOVQ occ_len+104(FP), R9
	LEAQ (R8)(R9*8), R9
	CMPQ R8, R9
	JEQ  sums16
	PCALIGN $64
row16:
	MOVQ  (R8), R12
	IMULQ R10, R12
	ADDQ  SI, R12
	LEAQ  (R12)(R10*1), R13
	LEAQ  (DX)(CX*1), AX
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	PCALIGN $64
k16:
	VBROADCASTSS (R12), X0
	VCVTPS2PD    X0, Y0
	MULADD((AX), Y0, Y1)
	MULADD(32(AX), Y0, Y2)
	MULADD(64(AX), Y0, Y3)
	MULADD(96(AX), Y0, Y4)
	ADDQ R11, AX
	ADDQ $4, R12
	CMPQ R12, R13
	JNE  k16
	VMOVUPD Y1, (DI)
	VMOVUPD Y2, 32(DI)
	VMOVUPD Y3, 64(DI)
	VMOVUPD Y4, 96(DI)
	MULADD(Y1, Y1, Y9)
	MULADD(Y2, Y2, Y10)
	MULADD(Y3, Y3, Y11)
	MULADD(Y4, Y4, Y12)
	ADDQ R11, DI
	ADDQ $8, R8
	CMPQ R8, R9
	JNE  row16
sums16:
	MOVQ    sumsq_base+24(FP), BX
	VMOVUPD Y9, (BX)(CX*1)
	VMOVUPD Y10, 32(BX)(CX*1)
	VMOVUPD Y11, 64(BX)(CX*1)
	VMOVUPD Y12, 96(BX)(CX*1)
	ADDQ    $128, CX
	JMP     block16
	PCALIGN $64
block4:
	MOVQ R11, BX
	ANDQ $-32, BX
	CMPQ CX, BX
	JGE  done
	VXORPD Y9, Y9, Y9
	MOVQ rows_base+0(FP), DI
	ADDQ CX, DI
	MOVQ occ_base+96(FP), R8
	MOVQ occ_len+104(FP), R9
	LEAQ (R8)(R9*8), R9
	CMPQ R8, R9
	JEQ  sums4
	PCALIGN $64
row4:
	MOVQ  (R8), R12
	IMULQ R10, R12
	ADDQ  SI, R12
	LEAQ  (R12)(R10*1), R13
	LEAQ  (DX)(CX*1), AX
	VXORPD Y1, Y1, Y1
	PCALIGN $64
k4:
	VBROADCASTSS (R12), X0
	VCVTPS2PD    X0, Y0
	MULADD((AX), Y0, Y1)
	ADDQ R11, AX
	ADDQ $4, R12
	CMPQ R12, R13
	JNE  k4
	VMOVUPD Y1, (DI)
	MULADD(Y1, Y1, Y9)
	ADDQ R11, DI
	ADDQ $8, R8
	CMPQ R8, R9
	JNE  row4
sums4:
	MOVQ    sumsq_base+24(FP), BX
	VMOVUPD Y9, (BX)(CX*1)
	ADDQ    $32, CX
	JMP     block4
done:
	VZEROUPPER
	RET
