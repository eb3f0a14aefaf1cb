package core

import "repro/internal/tensor"

// mttkrpRows32 adds columns [0, r&^7) of non-zeros [lo, hi) of a block
// with 32-bit row indices to dst's rows, as mttkrpRows' plain Go loop
// does, and returns hi — or the first non-zero whose row of dst or of an
// operand does not fit in its data, of which it writes nothing.
// mttkrpFits must hold for the arguments: one to three operands.
//
//go:noescape
func mttkrpRows32(dst *mttkrpOperand[tensor.Index], ops []mttkrpOperand[tensor.Index], vals []tensor.Value, r, lo, hi int) int

// mttkrpBlocks adds columns [0, r&^7) of HiCOO blocks [lo, hi) to dst's
// rows, as executeBlocks' Go loop does: for each block b it takes
// bind[b] << bits as the base of dst and of each operand (in its own
// frame: the records are not written), then runs non-zeros
// [bptr[b], bptr[b+1]) as mttkrpRows32 does, over one to three
// operands.
// It returns (hi, ·) — or the block b and the non-zero x where it
// stopped, of which it wrote nothing: bptr[b] when bptr[b] or bptr[b+1]
// is not in [0, n], else the first non-zero whose row does not fit.
// blocksFit must hold for the arguments and give n.
//
//go:noescape
func mttkrpBlocks(dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], vals []tensor.Value, r, lo, hi int, bptr []int64, n, bits int) (b, x int)
