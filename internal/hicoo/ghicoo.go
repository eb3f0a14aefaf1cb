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
	uncomp := g.UncompModes()
	b := blockModes(t, compModes, uncomp, blockBits)
	g.BPtr, g.BInds, g.EInds = b.bptr, b.binds, b.einds
	g.UInds = make([][]tensor.Index, len(uncomp))
	for ui, n := range uncomp {
		g.UInds[ui] = gathered(t.Inds[n], b.perm)
	}
	g.Vals = gathered(t.Vals, b.perm)
	return g
}

// FromCOOExceptMode converts to gHiCOO compressing every mode except mode
// n — the configuration the HiCOO-Ttv and HiCOO-Ttm kernels use.
func FromCOOExceptMode(t *tensor.COO, n int, blockBits uint8) *GHiCOO {
	return FromCOOModes(t, tensor.OtherModes(t.Order(), n), blockBits)
}

// FiberPointers returns the start offsets of the fibers along the single
// uncompressed mode (runs of non-zeros agreeing on every compressed
// coordinate), plus a parallel array mapping each fiber to its block.
// It panics unless exactly one mode is uncompressed.
func (g *GHiCOO) FiberPointers() (fptr []int64, fiberBlock []int32) {
	if len(g.UInds) != 1 {
		panic("hicoo: FiberPointers requires exactly one uncompressed mode")
	}
	fibers := 0
	for b := 0; b < g.NumBlocks(); b++ {
		for x := g.BPtr[b]; x < g.BPtr[b+1]; x++ {
			if g.startsFiber(b, x) {
				fibers++
			}
		}
	}
	fptr, fiberBlock = make([]int64, 0, fibers+1), make([]int32, 0, fibers)
	for b := 0; b < g.NumBlocks(); b++ {
		for x := g.BPtr[b]; x < g.BPtr[b+1]; x++ {
			if g.startsFiber(b, x) {
				fptr = append(fptr, x)
				fiberBlock = append(fiberBlock, int32(b))
			}
		}
	}
	return append(fptr, int64(g.NNZ())), fiberBlock
}

// startsFiber reports whether non-zero x of block b starts a fiber: it
// is the block's first, or it differs from x-1 in a compressed coordinate.
func (g *GHiCOO) startsFiber(b int, x int64) bool {
	if x == g.BPtr[b] {
		return true
	}
	for _, e := range g.EInds[:len(g.CompModes)] {
		if e[x] != e[x-1] {
			return true
		}
	}
	return false
}

func (g *GHiCOO) String() string {
	return fmt.Sprintf("gHiCOO(order=%d dims=%v nnz=%d blocks=%d comp=%v B=%d)",
		g.Order(), g.Dims, g.NNZ(), g.NumBlocks(), g.CompModes, g.BlockSize())
}
