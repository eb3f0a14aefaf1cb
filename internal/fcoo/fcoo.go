// Package fcoo implements the flagged-COO (F-COO) sparse tensor format of
// Liu et al. (CLUSTER'17), one of the formats the paper's §3 surveys next
// to CSF and HiCOO. F-COO is *mode-specific*: for a computation in mode n
// it stores the product-mode indices per non-zero plus one bit flag
// marking the start of each output unit (fiber), and per-segment start
// flags so fixed-size segments can be processed independently by GPU
// thread blocks with a segmented reduction — replacing both the fiber
// pointers of COO kernels and most of their atomics.
package fcoo

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/tensor"
)

// DefaultSegSize is the number of non-zeros a GPU thread block processes.
const DefaultSegSize = 256

// FCOO is an F-COO representation specialized for one product mode.
type FCOO struct {
	// Dims holds the size of every mode.
	Dims []tensor.Index
	// Mode is the product mode the format is specialized for.
	Mode int
	// SegSize is the segment length (non-zeros per thread block).
	SegSize int
	// KInd holds the product-mode index of each non-zero.
	KInd []tensor.Index
	// Vals holds the non-zero values in fiber order.
	Vals []tensor.Value
	// BitFlag is a packed bitset with one bit per non-zero: set when the
	// non-zero starts a new fiber (a new output element).
	BitFlag []uint64
	// StartFlag has one bit per segment: set when the segment's first
	// non-zero CONTINUES the previous segment's fiber (the carry case).
	StartFlag []uint64
	// SegFiber maps each segment to the fiber its first non-zero belongs
	// to (per-segment metadata, like F-COO's precomputed block starts).
	SegFiber []int32
	// numFlagged counts the set bits in BitFlag.
	numFlagged int
	// OutInds holds the output coordinates of each fiber, one array per
	// non-product mode (ascending mode order). Set by FromCOO (the
	// Ttv-oriented layout).
	OutInds [][]tensor.Index
	// OtherInds holds per-NON-ZERO index arrays for the non-output modes
	// (ascending mode order). Set by FromCOOMttkrp (the Mttkrp-oriented
	// layout, where Mode is the OUTPUT mode and KInd carries output rows).
	OtherInds [][]tensor.Index
}

// NNZ returns the number of stored non-zeros.
func (f *FCOO) NNZ() int { return len(f.Vals) }

// NumFibers returns the number of output units (fibers for the Ttv
// layout, distinct output-row runs for the Mttkrp layout).
func (f *FCOO) NumFibers() int {
	if len(f.OutInds) > 0 {
		return len(f.OutInds[0])
	}
	return f.numFlagged
}

// NumSegments returns the number of fixed-size segments.
func (f *FCOO) NumSegments() int { return (f.NNZ() + f.SegSize - 1) / f.SegSize }

func bitGet(set []uint64, i int64) bool { return set[i>>6]>>(uint(i)&63)&1 == 1 }
func bitSet(set []uint64, i int64)      { set[i>>6] |= 1 << (uint(i) & 63) }

// FromCOO builds the mode-n F-COO representation. The tensor is sorted so
// mode-n fibers are contiguous (a sorted copy is made if needed); segSize <= 0
// selects DefaultSegSize.
func FromCOO(t *tensor.COO, mode, segSize int) (*FCOO, error) {
	if mode < 0 || mode >= t.Order() {
		return nil, fmt.Errorf("fcoo: mode %d out of range for order-%d tensor", mode, t.Order())
	}
	if t.Order() < 2 {
		return nil, fmt.Errorf("fcoo: need an order >= 2 tensor")
	}
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	xs := t.SortedBy(tensor.ModeOrder(t.Order(), mode))
	fptr := xs.FiberPointers(mode)
	mf := len(fptr) - 1
	m := xs.NNZ()

	f := &FCOO{
		Dims:    append([]tensor.Index(nil), t.Dims...),
		Mode:    mode,
		SegSize: segSize,
		KInd:    append([]tensor.Index(nil), xs.Inds[mode]...),
		Vals:    append([]tensor.Value(nil), xs.Vals...),
		BitFlag: make([]uint64, (m+63)/64+1),
	}
	for _, n := range tensor.OtherModes(t.Order(), mode) {
		ind := make([]tensor.Index, mf)
		src := xs.Inds[n]
		for fi := 0; fi < mf; fi++ {
			ind[fi] = src[fptr[fi]]
		}
		f.OutInds = append(f.OutInds, ind)
	}
	for fi := 0; fi < mf; fi++ {
		bitSet(f.BitFlag, fptr[fi])
	}
	f.numFlagged = mf
	f.buildSegments()
	return f, nil
}

// FromCOOMttkrp builds the Mttkrp-oriented F-COO layout for output mode
// n: non-zeros sorted with mode n outermost, KInd carrying the OUTPUT row
// of each non-zero, bit flags marking output-row changes, and per-non-
// zero index arrays for the other modes.
func FromCOOMttkrp(t *tensor.COO, mode, segSize int) (*FCOO, error) {
	if mode < 0 || mode >= t.Order() {
		return nil, fmt.Errorf("fcoo: mode %d out of range for order-%d tensor", mode, t.Order())
	}
	if t.Order() < 2 {
		return nil, fmt.Errorf("fcoo: need an order >= 2 tensor")
	}
	if segSize <= 0 {
		segSize = DefaultSegSize
	}
	// Sort with the output mode outermost.
	xs := t.SortedBy(append([]int{mode}, tensor.OtherModes(t.Order(), mode)...))
	m := xs.NNZ()
	f := &FCOO{
		Dims:    append([]tensor.Index(nil), t.Dims...),
		Mode:    mode,
		SegSize: segSize,
		KInd:    append([]tensor.Index(nil), xs.Inds[mode]...),
		Vals:    append([]tensor.Value(nil), xs.Vals...),
		BitFlag: make([]uint64, (m+63)/64+1),
	}
	for _, n := range tensor.OtherModes(t.Order(), mode) {
		f.OtherInds = append(f.OtherInds, append([]tensor.Index(nil), xs.Inds[n]...))
	}
	for x := 0; x < m; x++ {
		if x == 0 || f.KInd[x] != f.KInd[x-1] {
			bitSet(f.BitFlag, int64(x))
			f.numFlagged++
		}
	}
	f.buildSegments()
	return f, nil
}

// buildSegments derives the per-segment metadata from the bit flags.
func (f *FCOO) buildSegments() {
	m := int64(f.NNZ())
	segs := f.NumSegments()
	f.StartFlag = make([]uint64, (int64(segs)+63)/64+1)
	f.SegFiber = make([]int32, segs)
	fiber := int32(-1)
	for s := 0; s < segs; s++ {
		start := int64(s) * int64(f.SegSize)
		if bitGet(f.BitFlag, start) {
			fiber++
		} else {
			bitSet(f.StartFlag, int64(s)) // carries the previous fiber
		}
		f.SegFiber[s] = fiber
		end := start + int64(f.SegSize)
		if end > m {
			end = m
		}
		for x := start + 1; x < end; x++ {
			if bitGet(f.BitFlag, x) {
				fiber++
			}
		}
	}
}

// TtvGPU computes Y = X ×ₙ v with a segmented reduction: one thread block
// per segment accumulates fiber partials locally (threads within a block
// cooperate on the segment) and combines cross-segment carries with
// atomicAdd — F-COO's replacement for the one-thread-per-fiber COO kernel
// whose load imbalance the paper highlights. The output is a COO tensor
// of order N-1.
func (f *FCOO) TtvGPU(dev *gpusim.Device, v tensor.Vector) (*tensor.COO, error) {
	if len(v) != int(f.Dims[f.Mode]) {
		return nil, fmt.Errorf("fcoo: vector length %d, want %d", len(v), f.Dims[f.Mode])
	}
	mf := f.NumFibers()
	outDims := make([]tensor.Index, 0, len(f.Dims)-1)
	for _, n := range tensor.OtherModes(len(f.Dims), f.Mode) {
		outDims = append(outDims, f.Dims[n])
	}
	out := &tensor.COO{
		Dims: outDims,
		Inds: make([][]tensor.Index, len(outDims)),
		Vals: make([]tensor.Value, mf),
	}
	for i := range out.Inds {
		out.Inds[i] = append([]tensor.Index(nil), f.OutInds[i]...)
	}
	if f.NNZ() == 0 {
		return out, nil
	}

	m := int64(f.NNZ())
	segSize := int64(f.SegSize)
	segs := f.NumSegments()
	yv := out.Vals
	// One block per segment; thread 0 performs the segment's sequential
	// segmented scan (gpusim threads in a block run sequentially, so a
	// cooperative scan would be semantically identical).
	dev.Launch(gpusim.Dim1(segs), gpusim.Dim1(1), func(ctx gpusim.Ctx) {
		s := ctx.BlockIdx.X
		start := int64(s) * segSize
		end := start + segSize
		if end > m {
			end = m
		}
		fiber := f.SegFiber[s]
		var acc tensor.Value
		carrying := bitGet(f.StartFlag, int64(s))
		for x := start; x < end; x++ {
			if x > start && bitGet(f.BitFlag, x) {
				// Close the current fiber: the first partial of a carrying
				// segment and the final partial may race with neighbor
				// segments, so they use atomicAdd; interior fibers are
				// exclusive to this segment.
				if carrying {
					gpusim.AtomicAdd(&yv[fiber], acc)
					carrying = false
				} else {
					yv[fiber] += acc
				}
				acc = 0
				fiber++
			}
			acc += f.Vals[x] * v[f.KInd[x]]
		}
		// Final partial: the fiber may continue into the next segment.
		gpusim.AtomicAdd(&yv[fiber], acc)
	})
	return out, nil
}

// MttkrpGPU computes the Mttkrp for the output mode this F-COO was built
// with (FromCOOMttkrp) using the same segmented scheme: per segment,
// R-wide partials are accumulated per output row and merged with atomics
// only where a row spans a segment boundary — F-COO's answer to
// COO-Mttkrp's per-non-zero atomics.
func (f *FCOO) MttkrpGPU(dev *gpusim.Device, mats []*tensor.Matrix, r int) (*tensor.Matrix, error) {
	order := len(f.Dims)
	if len(mats) != order {
		return nil, fmt.Errorf("fcoo: got %d factor matrices, want %d", len(mats), order)
	}
	others := tensor.OtherModes(order, f.Mode)
	if len(f.OtherInds) != len(others) {
		return nil, fmt.Errorf("fcoo: representation lacks other-mode indices (build with FromCOOMttkrp)")
	}
	for _, n := range others {
		u := mats[n]
		if u == nil || u.Rows != int(f.Dims[n]) || u.Cols != r {
			return nil, fmt.Errorf("fcoo: factor %d malformed", n)
		}
	}
	out := tensor.NewMatrix(int(f.Dims[f.Mode]), r)
	if f.NNZ() == 0 {
		return out, nil
	}
	m := int64(f.NNZ())
	segSize := int64(f.SegSize)
	segs := f.NumSegments()
	od := out.Data
	dev.Launch(gpusim.Dim1(segs), gpusim.Dim1(1), func(ctx gpusim.Ctx) {
		s := ctx.BlockIdx.X
		start := int64(s) * segSize
		end := start + segSize
		if end > m {
			end = m
		}
		acc := make([]tensor.Value, r)
		flush := func(row int, atomically bool) {
			base := row * r
			for c := 0; c < r; c++ {
				if acc[c] == 0 {
					continue
				}
				if atomically {
					gpusim.AtomicAdd(&od[base+c], acc[c])
				} else {
					od[base+c] += acc[c]
				}
				acc[c] = 0
			}
		}
		carrying := bitGet(f.StartFlag, int64(s))
		row := int(f.KInd[start])
		for x := start; x < end; x++ {
			if x > start && bitGet(f.BitFlag, x) {
				flush(row, carrying)
				carrying = false
				row = int(f.KInd[x])
			}
			for c := 0; c < r; c++ {
				p := f.Vals[x]
				for oi, n := range others {
					p *= mats[n].Data[int(f.OtherInds[oi][x])*r+c]
				}
				acc[c] += p
			}
		}
		flush(row, true)
	})
	return out, nil
}
