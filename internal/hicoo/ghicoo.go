package hicoo

import (
	"fmt"

	"repro/internal/tensor"
)

// GHiCOO is the generalized HiCOO variant introduced by this paper
// (Figure 2b): a chosen subset of modes is compressed into HiCOO-style
// block + element indices, while the remaining modes keep plain 32-bit COO
// indices. Leaving the product mode uncompressed lets Ttv and Ttm bypass
// the blocking structure (no data race between blocks) and also rescues
// hyper-sparse tensors where full HiCOO degrades to singleton blocks.
type GHiCOO struct {
	// Dims holds the size of every mode.
	Dims []tensor.Index
	// CompModes lists the compressed modes in ascending order.
	CompModes []int
	// BlockBits is log2(B) for the compressed modes.
	BlockBits uint8
	// BPtr[b] is the first non-zero of block b (NumBlocks+1 entries).
	BPtr []int64
	// BInds holds one block-index array per compressed mode (length
	// NumBlocks each).
	BInds [][]tensor.Index
	// EInds holds one element-index array per compressed mode (length NNZ).
	EInds [][]uint8
	// UInds holds one full 32-bit index array per uncompressed mode
	// (length NNZ), in ascending mode order.
	UInds [][]tensor.Index
	// Vals holds the non-zero values.
	Vals []tensor.Value
}

// Order returns the number of modes.
func (g *GHiCOO) Order() int { return len(g.Dims) }

// NNZ returns the number of stored non-zeros.
func (g *GHiCOO) NNZ() int { return len(g.Vals) }

// NumBlocks returns the number of non-empty compressed blocks.
func (g *GHiCOO) NumBlocks() int { return len(g.BPtr) - 1 }

// BlockSize returns B.
func (g *GHiCOO) BlockSize() int { return 1 << g.BlockBits }

// UncompModes returns the uncompressed modes in ascending order.
func (g *GHiCOO) UncompModes() []int {
	out := make([]int, 0, g.Order()-len(g.CompModes))
	c := 0
	for n := 0; n < g.Order(); n++ {
		if c < len(g.CompModes) && g.CompModes[c] == n {
			c++
			continue
		}
		out = append(out, n)
	}
	return out
}

// StorageBytes returns the gHiCOO footprint: block pointers, compressed
// block + element indices, full indices for uncompressed modes, values.
func (g *GHiCOO) StorageBytes() int64 {
	nb := int64(g.NumBlocks())
	m := int64(g.NNZ())
	nc := int64(len(g.CompModes))
	nu := int64(len(g.UInds))
	return 8*(nb+1) + 4*nc*nb + 1*nc*m + 4*nu*m + 4*m
}

// FromCOOModes converts a COO tensor to gHiCOO, compressing exactly the
// modes listed in compModes (ascending). Non-zeros are ordered by Morton
// order of the compressed block indices, then lexicographically by the
// compressed element indices, then by the uncompressed indices — so for a
// single uncompressed mode the mode-n fibers are contiguous and sorted,
// exactly what the Ttv/Ttm kernels need.
func FromCOOModes(t *tensor.COO, compModes []int, blockBits uint8) *GHiCOO {
	g, _ := fromCOOModes(t, compModes, blockBits, false)
	return g
}

// FromCOOExceptMode converts to gHiCOO compressing every mode except mode
// n — the configuration the HiCOO-Ttv and HiCOO-Ttm kernels use.
func FromCOOExceptMode(t *tensor.COO, n int, blockBits uint8) *GHiCOO {
	return FromCOOModes(t, tensor.OtherModes(t.Order(), n), blockBits)
}

// Fibers is the fiber structure of a gHiCOO tensor with one uncompressed
// mode: its runs of non-zeros equal on every compressed mode, in storage
// order, and the HiCOO skeleton they induce over the compressed modes —
// one entry per fiber, in the tensor's blocks — which is the block
// structure of Ttv's (HiCOO) and Ttm's (sHiCOO) output.
type Fibers struct {
	// Ptr[f] is the first non-zero of fiber f (NumFibers+1 entries).
	Ptr []int64
	// BPtr[b] is the first fiber of block b (NumBlocks+1 entries).
	BPtr []int64
	// BInds holds one block-index array per compressed mode, a copy of
	// the tensor's.
	BInds [][]tensor.Index
	// EInds holds one element-index array per compressed mode, the
	// element index of every fiber.
	EInds [][]uint8
}

// FromCOOFibers is FromCOOExceptMode plus the mode-n fibers, found in the
// same sweep that assembles the blocks. It panics unless n is a mode, so
// that exactly one mode is uncompressed.
func FromCOOFibers(t *tensor.COO, n int, blockBits uint8) (*GHiCOO, *Fibers) {
	if n < 0 || n >= t.Order() {
		panic(fmt.Sprintf("hicoo: fibers need one uncompressed mode, got mode %d of %d", n, t.Order()))
	}
	return fromCOOModes(t, tensor.OtherModes(t.Order(), n), blockBits, true)
}

func fromCOOModes(t *tensor.COO, compModes []int, blockBits uint8, fibers bool) (*GHiCOO, *Fibers) {
	if blockBits == 0 || blockBits > MaxBlockBits {
		panic(fmt.Sprintf("hicoo: blockBits %d outside [1,%d]", blockBits, MaxBlockBits))
	}
	for i := 1; i < len(compModes); i++ {
		if compModes[i] <= compModes[i-1] {
			panic("hicoo: compModes must be strictly ascending")
		}
	}
	if len(compModes) == 0 {
		panic("hicoo: FromCOOModes needs at least one compressed mode")
	}
	g := &GHiCOO{
		Dims:      append([]tensor.Index(nil), t.Dims...),
		CompModes: append([]int(nil), compModes...),
		BlockBits: blockBits,
	}
	b := blockModes(t, compModes, g.UncompModes(), blockBits, fibers)
	g.BPtr, g.BInds, g.EInds, g.UInds, g.Vals = b.bptr, b.binds, b.einds, b.uinds, b.vals
	return g, b.fibers
}

func (g *GHiCOO) String() string {
	return fmt.Sprintf("gHiCOO(order=%d dims=%v nnz=%d blocks=%d comp=%v B=%d)",
		g.Order(), g.Dims, g.NNZ(), g.NumBlocks(), g.CompModes, g.BlockSize())
}
