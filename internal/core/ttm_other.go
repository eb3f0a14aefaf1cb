//go:build !amd64

package core

import "repro/internal/tensor"

// The Ttm fiber body has no assembly on this port: cpu.AVX2 stays false
// and ttmFibers runs its Go loop.

func ttmRows(out []tensor.Value, fptr []int64, kInd []tensor.Index, vals, ud []tensor.Value, r, lo, hi int, stream bool) int {
	panic("core: no assembly body on this port")
}
