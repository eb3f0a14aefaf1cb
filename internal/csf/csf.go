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

// ToCOO expands the CSF tensor back to coordinate format.
func (c *CSF) ToCOO() *tensor.COO {
	order := c.Order()
	return &tensor.COO{
		Dims: append([]tensor.Index(nil), c.Dims...),
		Inds: tensor.UnfoldTree(c.FIds, c.FPtr, c.ModeOrder, make([]uint8, order), order),
		Vals: append([]tensor.Value(nil), c.Vals...),
	}
}

// Validate checks structural invariants.
func (c *CSF) Validate() error {
	order := c.Order()
	if len(c.FIds) != order || len(c.FPtr) != order-1 {
		return fmt.Errorf("csf: level arrays malformed")
	}
	for l := 0; l < order-1; l++ {
		if len(c.FPtr[l]) != len(c.FIds[l])+1 {
			return fmt.Errorf("csf: level %d has %d pointers for %d nodes", l, len(c.FPtr[l]), len(c.FIds[l]))
		}
		if c.FPtr[l][0] != 0 || c.FPtr[l][len(c.FPtr[l])-1] != int64(len(c.FIds[l+1])) {
			return fmt.Errorf("csf: level %d pointers do not span children", l)
		}
		for i := 0; i+1 < len(c.FPtr[l]); i++ {
			if c.FPtr[l][i+1] <= c.FPtr[l][i] {
				return fmt.Errorf("csf: level %d node %d has no children", l, i)
			}
		}
	}
	if len(c.FIds[order-1]) != len(c.Vals) {
		return fmt.Errorf("csf: leaf count %d != value count %d", len(c.FIds[order-1]), len(c.Vals))
	}
	for l := 0; l < order; l++ {
		d := c.Dims[c.ModeOrder[l]]
		for _, i := range c.FIds[l] {
			if i >= d {
				return fmt.Errorf("csf: level %d index %d out of range", l, i)
			}
		}
	}
	return nil
}

func (c *CSF) String() string {
	return fmt.Sprintf("CSF(order=%d dims=%v nnz=%d modeOrder=%v)", c.Order(), c.Dims, c.NNZ(), c.ModeOrder)
}
