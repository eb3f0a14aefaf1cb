package hicoo

import (
	"fmt"

	"repro/internal/tensor"
)

// SemiHiCOO is the sHiCOO variant introduced by this paper (Figure 2c): a
// semi-sparse tensor whose sparse modes are compressed HiCOO-style (block
// + 8-bit element indices over fibers) while the dense modes are stored as
// dense value blocks per fiber. The HiCOO-Ttm kernel emits its output in
// this format.
type SemiHiCOO struct {
	// Dims holds the size of every mode, dense ones included.
	Dims []tensor.Index
	// DenseModes lists the dense modes in ascending order.
	DenseModes []int
	// BlockBits is log2(B) for the sparse modes.
	BlockBits uint8
	// BPtr[b] is the first fiber of block b (NumBlocks+1 entries).
	BPtr []int64
	// BInds holds one block-index array per sparse mode (length NumBlocks).
	BInds [][]tensor.Index
	// EInds holds one element-index array per sparse mode (length
	// NumFibers).
	EInds [][]uint8
	// Vals holds NumFibers × DenseSize values, fiber-major.
	Vals []tensor.Value
}

// Order returns the number of modes, dense ones included.
func (s *SemiHiCOO) Order() int { return len(s.Dims) }

// NumBlocks returns the number of non-empty sparse blocks.
func (s *SemiHiCOO) NumBlocks() int { return len(s.BPtr) - 1 }

// NumFibers returns the number of stored fibers.
func (s *SemiHiCOO) NumFibers() int {
	if len(s.EInds) > 0 {
		return len(s.EInds[0])
	}
	ds := s.DenseSize()
	if ds == 0 {
		return 0
	}
	return len(s.Vals) / ds
}

// DenseSize returns the number of values stored per fiber.
func (s *SemiHiCOO) DenseSize() int {
	p := 1
	for _, n := range s.DenseModes {
		p *= int(s.Dims[n])
	}
	return p
}

// SparseModes returns the sparse modes in ascending order.
func (s *SemiHiCOO) SparseModes() []int {
	out := make([]int, 0, s.Order()-len(s.DenseModes))
	d := 0
	for n := 0; n < s.Order(); n++ {
		if d < len(s.DenseModes) && s.DenseModes[d] == n {
			d++
			continue
		}
		out = append(out, n)
	}
	return out
}

// SparseIndex reconstructs the coordinate of sparse-mode slot si for fiber
// f inside block b.
func (s *SemiHiCOO) SparseIndex(si, b int, f int64) tensor.Index {
	return s.BInds[si][b]<<s.BlockBits | tensor.Index(s.EInds[si][f])
}

// FiberVals returns a slice aliasing the dense values of fiber f.
func (s *SemiHiCOO) FiberVals(f int) []tensor.Value {
	ds := s.DenseSize()
	return s.Vals[f*ds : (f+1)*ds]
}

// ToSemiCOO expands to the sCOO representation (same dense layout, full
// 32-bit sparse indices), mainly for comparison against the COO kernels.
func (s *SemiHiCOO) ToSemiCOO() *tensor.SemiCOO {
	out := tensor.NewSemiCOO(s.Dims, s.DenseModes, s.NumFibers())
	sparseIdx := make([]tensor.Index, len(s.BInds))
	for b := 0; b < s.NumBlocks(); b++ {
		for f := s.BPtr[b]; f < s.BPtr[b+1]; f++ {
			for si := range s.BInds {
				sparseIdx[si] = s.SparseIndex(si, b, f)
			}
			fi := out.AppendFiber(sparseIdx)
			copy(out.FiberVals(fi), s.FiberVals(int(f)))
		}
	}
	return out
}

// Validate checks structural invariants.
func (s *SemiHiCOO) Validate() error {
	nf := s.NumFibers()
	nb := s.NumBlocks()
	ns := s.Order() - len(s.DenseModes)
	if len(s.BInds) != ns || len(s.EInds) != ns {
		return fmt.Errorf("hicoo: sHiCOO has %d/%d sparse arrays, want %d", len(s.BInds), len(s.EInds), ns)
	}
	if nb < 0 || s.BPtr[0] != 0 || s.BPtr[nb] != int64(nf) {
		return fmt.Errorf("hicoo: sHiCOO block pointers malformed")
	}
	if len(s.Vals) != nf*s.DenseSize() {
		return fmt.Errorf("hicoo: sHiCOO has %d values, want %d", len(s.Vals), nf*s.DenseSize())
	}
	sparse := s.SparseModes()
	for b := 0; b < nb; b++ {
		for f := s.BPtr[b]; f < s.BPtr[b+1]; f++ {
			for si, n := range sparse {
				if i := s.SparseIndex(si, b, f); i >= s.Dims[n] {
					return fmt.Errorf("hicoo: sHiCOO index %d out of range in mode %d", i, n)
				}
			}
		}
	}
	return nil
}

func (s *SemiHiCOO) String() string {
	return fmt.Sprintf("sHiCOO(order=%d dims=%v dense=%v fibers=%d blocks=%d B=%d)",
		s.Order(), s.Dims, s.DenseModes, s.NumFibers(), s.NumBlocks(), 1<<s.BlockBits)
}
