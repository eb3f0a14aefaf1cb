//go:build !amd64

package core

import "repro/internal/tensor"

// The Mttkrp row body has no assembly on this port: cpu.AVX2 stays false
// and mttkrpRows and executeBlocks run their Go loops.

func mttkrpRows32(dst *mttkrpOperand[tensor.Index], ops []mttkrpOperand[tensor.Index], vals []tensor.Value, r, lo, hi int) int {
	panic("core: no assembly body on this port")
}

func mttkrpBlocks(dst *mttkrpOperand[uint8], ops []mttkrpOperand[uint8], vals []tensor.Value, r, lo, hi int, bptr []int64, n, bits int) (b, x int) {
	panic("core: no assembly body on this port")
}
