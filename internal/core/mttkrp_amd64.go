package core

import "repro/internal/tensor"

// mttkrpRows32 adds columns [0, r&^7) of non-zeros [lo, hi) of a block
// with 32-bit row indices to dst's rows, as mttkrpRows' plain Go loop
// does, and returns hi — or the first non-zero whose row of dst or of an
// operand does not fit in its data, of which it writes nothing.
// mttkrpFits must hold for the arguments.
//
//go:noescape
func mttkrpRows32(dst *mttkrpOperand[tensor.Index], ops []mttkrpOperand[tensor.Index], vals []tensor.Value, r, lo, hi int) int

// mttkrpRows8 is mttkrpRows32 for HiCOO blocks: 8-bit element indices.
//
//go:noescape
func mttkrpRows8(dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], vals []tensor.Value, r, lo, hi int) int
