// Package hicoo implements the Hierarchical COOrdinate (HiCOO) sparse
// tensor format of Li et al. (SC'18) and the two variants this benchmark
// paper introduces: gHiCOO (per-mode selective compression) and sHiCOO
// (semi-sparse tensors with dense modes). Tensor indices are compressed in
// units of B×…×B sparse blocks: block indices keep 32 bits while element
// indices within a block need only 8 bits, and blocks are laid out in
// Morton (Z-curve) order to improve locality.
package hicoo

import (
	"fmt"

	"repro/internal/tensor"
)

// DefaultBlockBits is log2 of the paper's block size B=128, chosen so a
// block of factor-matrix rows fits the last-level cache and element
// indices fit in 8 bits (§5.1.2).
const DefaultBlockBits = 7

// MaxBlockBits bounds the block size so element indices fit in a uint8.
const MaxBlockBits = 8

// HiCOO stores a sparse tensor as Morton-ordered sparse blocks of size
// B^N: per-block 32-bit block indices plus per-non-zero 8-bit element
// indices (Figure 2a of the paper).
type HiCOO struct {
	// Dims holds the size of each mode.
	Dims []tensor.Index
	// BlockBits is log2(B).
	BlockBits uint8
	// BPtr[b] is the first non-zero of block b; BPtr has NumBlocks+1
	// entries with the final sentinel equal to NNZ.
	BPtr []int64
	// BInds holds one block-index array per mode, each of length NumBlocks.
	BInds [][]tensor.Index
	// EInds holds one element-index array per mode, each of length NNZ.
	EInds [][]uint8
	// Vals holds the non-zero values in block order.
	Vals []tensor.Value
}

// Order returns the number of modes.
func (h *HiCOO) Order() int { return len(h.Dims) }

// NNZ returns the number of stored non-zeros.
func (h *HiCOO) NNZ() int { return len(h.Vals) }

// NumBlocks returns nb, the number of non-empty sparse blocks.
func (h *HiCOO) NumBlocks() int { return len(h.BPtr) - 1 }

// BlockSize returns B.
func (h *HiCOO) BlockSize() int { return 1 << h.BlockBits }

// Index reconstructs the full mode-n coordinate of non-zero x inside
// block b: (blockIndex << BlockBits) | elementIndex.
func (h *HiCOO) Index(n, b int, x int64) tensor.Index {
	return h.BInds[n][b]<<h.BlockBits | tensor.Index(h.EInds[n][x])
}

// StorageBytes returns the HiCOO footprint: 64-bit block pointers, 32-bit
// block indices per mode, 8-bit element indices per mode, and 32-bit
// values (the accounting of the HiCOO paper).
func (h *HiCOO) StorageBytes() int64 {
	nb := int64(h.NumBlocks())
	m := int64(h.NNZ())
	n := int64(h.Order())
	return 8*(nb+1) + 4*n*nb + 1*n*m + 4*m
}

// FromCOO converts a COO tensor to HiCOO with the given block bits
// (log2 B). The non-zeros are sorted by the Morton order of their block
// indices and, within each block, lexicographically by element index. The
// input is not modified. FromCOO panics if blockBits exceeds MaxBlockBits.
func FromCOO(t *tensor.COO, blockBits uint8) *HiCOO {
	if blockBits == 0 || blockBits > MaxBlockBits {
		panic(fmt.Sprintf("hicoo: blockBits %d outside [1,%d]", blockBits, MaxBlockBits))
	}
	b := blockModes(t, tensor.OtherModes(t.Order(), -1), nil, blockBits)
	return &HiCOO{
		Dims:      append([]tensor.Index(nil), t.Dims...),
		BlockBits: blockBits,
		BPtr:      b.bptr,
		BInds:     b.binds,
		EInds:     b.einds,
		Vals:      gathered(t.Vals, b.perm),
	}
}

// ToCOO expands the HiCOO tensor back to coordinate format in block order.
func (h *HiCOO) ToCOO() *tensor.COO {
	out := tensor.NewCOO(h.Dims, h.NNZ())
	idx := make([]tensor.Index, h.Order())
	for b := 0; b < h.NumBlocks(); b++ {
		for x := h.BPtr[b]; x < h.BPtr[b+1]; x++ {
			for n := 0; n < h.Order(); n++ {
				idx[n] = h.Index(n, b, x)
			}
			out.Append(idx, h.Vals[x])
		}
	}
	return out
}

// Validate checks structural invariants: monotone block pointers, in-range
// block and element indices, and array length agreement.
func (h *HiCOO) Validate() error {
	order := h.Order()
	m := h.NNZ()
	nb := h.NumBlocks()
	if nb < 0 {
		return fmt.Errorf("hicoo: empty block pointer array")
	}
	if h.BPtr[0] != 0 || h.BPtr[nb] != int64(m) {
		return fmt.Errorf("hicoo: block pointers must span [0,%d], got [%d,%d]", m, h.BPtr[0], h.BPtr[nb])
	}
	for b := 0; b < nb; b++ {
		if h.BPtr[b+1] <= h.BPtr[b] {
			return fmt.Errorf("hicoo: block %d is empty or pointers not increasing", b)
		}
	}
	for n := 0; n < order; n++ {
		if len(h.BInds[n]) != nb {
			return fmt.Errorf("hicoo: mode %d has %d block indices, want %d", n, len(h.BInds[n]), nb)
		}
		if len(h.EInds[n]) != m {
			return fmt.Errorf("hicoo: mode %d has %d element indices, want %d", n, len(h.EInds[n]), m)
		}
	}
	for b := 0; b < nb; b++ {
		for x := h.BPtr[b]; x < h.BPtr[b+1]; x++ {
			for n := 0; n < order; n++ {
				if int(h.EInds[n][x]) >= h.BlockSize() {
					return fmt.Errorf("hicoo: element index %d exceeds block size %d", h.EInds[n][x], h.BlockSize())
				}
				if i := h.Index(n, b, x); i >= h.Dims[n] {
					return fmt.Errorf("hicoo: reconstructed index %d out of range [0,%d) in mode %d", i, h.Dims[n], n)
				}
			}
		}
	}
	return nil
}

// Stats summarizes block occupancy, the quantity that decides whether
// HiCOO compresses well (dense-ish blocks) or degrades to worse-than-COO
// on hyper-sparse tensors (mostly single-non-zero blocks, §3.3).
type Stats struct {
	NumBlocks        int
	NNZ              int
	MeanNNZPerBlock  float64
	MaxNNZPerBlock   int
	SingletonBlocks  int // blocks holding exactly one non-zero
	StorageBytes     int64
	COOBytes         int64
	CompressionVsCOO float64 // COOBytes / StorageBytes; >1 means HiCOO smaller
}

// ComputeStats measures block occupancy and storage.
func (h *HiCOO) ComputeStats() Stats {
	st := Stats{
		NumBlocks:    h.NumBlocks(),
		NNZ:          h.NNZ(),
		StorageBytes: h.StorageBytes(),
		COOBytes:     int64(4*(h.Order()+1)) * int64(h.NNZ()),
	}
	if st.NumBlocks > 0 {
		st.MeanNNZPerBlock = float64(st.NNZ) / float64(st.NumBlocks)
	}
	for b := 0; b < h.NumBlocks(); b++ {
		l := int(h.BPtr[b+1] - h.BPtr[b])
		if l > st.MaxNNZPerBlock {
			st.MaxNNZPerBlock = l
		}
		if l == 1 {
			st.SingletonBlocks++
		}
	}
	if st.StorageBytes > 0 {
		st.CompressionVsCOO = float64(st.COOBytes) / float64(st.StorageBytes)
	}
	return st
}

func (h *HiCOO) String() string {
	return fmt.Sprintf("HiCOO(order=%d dims=%v nnz=%d blocks=%d B=%d)",
		h.Order(), h.Dims, h.NNZ(), h.NumBlocks(), h.BlockSize())
}
