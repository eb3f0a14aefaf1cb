package tensor

// The column bodies (decode_amd64.s) take the first len&^31 entries of a
// column, at least 32, and index without bounds checks: the Go callers
// cut the column and slice src to 4 bytes per entry of dst first.

//go:noescape
func decodeU32AVX2(dst []Index, src []byte) (lo, hi Index)

//go:noescape
func decodeF32AVX2(dst []Value, src []byte) (top uint32)

//go:noescape
func maxIndexAVX2(ind []Index) (hi Index)

//go:noescape
func topF32AVX2(vals []Value) (top uint32)
