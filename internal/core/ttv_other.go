//go:build !amd64

package core

import "repro/internal/tensor"

// The Ttv body has no assembly on this port: cpu.AVX2 stays false and
// ttvFibers runs its Go loop.

func ttvGroups(out []tensor.Value, fptr []int64, kInd []tensor.Index, vals, v []tensor.Value, perm []int32, lo, hi int) int {
	panic("core: no assembly body on this port")
}
