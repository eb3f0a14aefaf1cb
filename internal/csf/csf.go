// Package csf implements the Compressed Sparse Fiber format of SPLATT
// (Smith et al., IPDPS'15), which the paper's §7 lists as the next format
// to add to the suite. CSF stores a sparse tensor as a forest: one tree
// level per mode (in a configurable mode order), with fiber pointers
// between levels. Mttkrp in the root mode parallelizes over root
// subtrees without atomics — the lock-free contrast to COO-Mttkrp's
// atomic updates.
package csf

import (
	"fmt"

	"repro/internal/tensor"
)

// CSF is a compressed-sparse-fiber tensor.
type CSF struct {
	// Dims holds the size of each mode (tensor-mode numbering).
	Dims []tensor.Index
	// ModeOrder maps tree level → tensor mode (level 0 is the root).
	ModeOrder []int
	// FIds[l] holds the mode index of every node at level l; FIds[N-1]
	// parallels Vals.
	FIds [][]tensor.Index
	// FPtr[l] holds, for each node at level l, the range of its children
	// at level l+1 (len = numNodes(l)+1); there are N-1 pointer arrays.
	FPtr [][]int64
	// Vals holds the non-zero values at the leaves.
	Vals []tensor.Value
}

// Order returns the number of modes.
func (c *CSF) Order() int { return len(c.Dims) }

// NNZ returns the number of stored non-zeros.
func (c *CSF) NNZ() int { return len(c.Vals) }

// NumNodes returns the node count at a level.
func (c *CSF) NumNodes(level int) int { return len(c.FIds[level]) }

// StorageBytes returns the CSF footprint: 64-bit fiber pointers, 32-bit
// node indices, 32-bit values.
func (c *CSF) StorageBytes() int64 {
	var b int64
	for _, p := range c.FPtr {
		b += 8 * int64(len(p))
	}
	for _, f := range c.FIds {
		b += 4 * int64(len(f))
	}
	return b + 4*int64(len(c.Vals))
}

// FromCOO builds a CSF tensor with the given level→mode order (defaults
// to natural order when nil). The input is not modified.
func FromCOO(t *tensor.COO, modeOrder []int) (*CSF, error) {
	order := t.Order()
	if modeOrder == nil {
		modeOrder = tensor.OtherModes(order, -1)
	}
	if len(modeOrder) != order {
		return nil, fmt.Errorf("csf: mode order length %d, want %d", len(modeOrder), order)
	}
	seen := make([]bool, order)
	for _, m := range modeOrder {
		if m < 0 || m >= order || seen[m] {
			return nil, fmt.Errorf("csf: invalid mode order %v", modeOrder)
		}
		seen[m] = true
	}
	xs := t.SortedBy(modeOrder)
	cols := make([][]tensor.Index, order)
	for l, n := range modeOrder {
		cols[l] = xs.Inds[n]
	}
	// A node at level l is a maximal run of non-zeros agreeing on modes
	// modeOrder[0..l]; every non-zero is a leaf.
	leaf := order - 1
	fids, fptr := tensor.FiberTree(cols, leaf)
	fids[leaf] = append([]tensor.Index(nil), fids[leaf]...) // aliases xs
	return &CSF{
		Dims:      append([]tensor.Index(nil), t.Dims...),
		ModeOrder: append([]int(nil), modeOrder...),
		FIds:      fids,
		FPtr:      fptr,
		Vals:      append([]tensor.Value(nil), xs.Vals...),
	}, nil
}

func (c *CSF) String() string {
	return fmt.Sprintf("CSF(order=%d dims=%v nnz=%d modeOrder=%v)", c.Order(), c.Dims, c.NNZ(), c.ModeOrder)
}
