// Package hicoo implements the Hierarchical COOrdinate (HiCOO) sparse
// tensor format of Li et al. (SC'18) and the two variants this benchmark
// paper introduces: gHiCOO (per-mode selective compression) and sHiCOO
// (semi-sparse tensors with dense modes). Tensor indices are compressed in
// units of B×…×B sparse blocks: block indices keep 32 bits while element
// indices within a block need only 8 bits, and blocks are laid out in
// Morton (Z-curve) order to improve locality.
package hicoo

import "repro/internal/tensor"

// MortonLess reports whether block-index tuple a precedes b on the
// N-dimensional Morton (Z-order) curve, i.e. when their coordinate bits
// are interleaved mode-major. It uses Chan's most-significant-differing-
// bit comparison, avoiding explicit interleaving (which would need 128
// bits for a 4th-order tensor). The conversions do not call it — they
// radix-sort on the packed interleaved key (blocksort.go) — it defines
// the order they must produce and is what their tests compare against.
func MortonLess(a, b []tensor.Index) bool {
	msd := 0
	var x tensor.Index
	for n := range a {
		y := a[n] ^ b[n]
		if lessMSB(x, y) {
			msd = n
			x = y
		}
	}
	return a[msd] < b[msd]
}

// lessMSB reports whether the most significant set bit of x is strictly
// below that of y (treating 0 as having no set bit).
func lessMSB(x, y tensor.Index) bool {
	return x < y && x < x^y
}

// MortonEncodeBits returns the bit-interleaved Morton key of idx as a
// big-endian bit slice (one byte per bit, value 0 or 1): bit 31 of mode 0,
// bit 31 of mode 1, …, bit 0 of mode N-1. It exists as an independently
// verifiable reference for MortonLess and for tests; the conversions pack
// the same bits, minus those no index has set, into 32-bit key columns.
func MortonEncodeBits(idx []tensor.Index) []byte {
	bits := make([]byte, 0, 32*len(idx))
	for b := 31; b >= 0; b-- {
		for n := range idx {
			bits = append(bits, byte((idx[n]>>uint(b))&1))
		}
	}
	return bits
}
