//go:build !amd64

package tensor

// The column bodies have no assembly on this port: cpu.AVX2 stays false
// and decodeU32, decodeF32, maxIndex and allFinite run their Go loops.

func decodeU32AVX2(dst []Index, src []byte) (lo, hi Index) {
	panic("tensor: no assembly body on this port")
}

func decodeF32AVX2(dst []Value, src []byte) (top uint32) {
	panic("tensor: no assembly body on this port")
}

func maxIndexAVX2(ind []Index) (hi Index) { panic("tensor: no assembly body on this port") }

func topF32AVX2(vals []Value) (top uint32) { panic("tensor: no assembly body on this port") }
