//go:build !amd64

package csf

import "repro/internal/tensor"

// The tree Mttkrp bodies have no assembly on this port: cpu.AVX2 stays
// false and walk runs the Go loops.

func fibersAVX2(b *treeBody, ptr []int64, ids []tensor.Index, u []tensor.Value, rows int, dst []tensor.Value, r, lo, hi int) int {
	panic("csf: no assembly body on this port")
}

func chainsAVX2(b *treeBody, ptr []int64, ids []tensor.Index, u []tensor.Value, rows int, dst []tensor.Value, r, lo, hi int) int {
	panic("csf: no assembly body on this port")
}
