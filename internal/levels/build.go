package levels

import (
	"fmt"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Build materializes a hierarchy for x under a signature and a slot →
// tensor-mode assignment. This is the whole cost of adding a format:
// one radix sort keyed by the per-level keys, then the linear fiber-tree
// assembly CSF shares (tensor.FiberTree) — no format-specific conversion
// code. The input is not modified.
func Build(x *tensor.COO, sig Signature, modeOrder []int) (*Hierarchy, error) {
	order := x.Order()
	if len(modeOrder) != order {
		return nil, fmt.Errorf("levels: mode order length %d, want %d", len(modeOrder), order)
	}
	seen := make([]bool, order)
	for _, m := range modeOrder {
		if m < 0 || m >= order || seen[m] {
			return nil, fmt.Errorf("levels: invalid mode order %v", modeOrder)
		}
		seen[m] = true
	}
	if err := sig.Validate(order); err != nil {
		return nil, err
	}
	nlev := len(sig.Levels)
	m := x.NNZ()

	// Per-level key extraction: the bit-range of the slot's coordinate
	// this level stores. width(l) is bounded by the next-higher shift of
	// the same slot so split modes partition their bits exactly.
	keys := make([][]tensor.Index, nlev)
	for l, d := range sig.Levels {
		mode := modeOrder[d.Slot]
		src := x.Inds[mode]
		mask := levelMask(sig, l)
		ks := make([]tensor.Index, m)
		for i, c := range src {
			ks[i] = (c >> d.Shift) & mask
		}
		keys[l] = ks
	}

	// Sort entries lexicographically by the level-key tuple; input that
	// already is in that order (a fiber-sorted tensor under a tree
	// signature) is used as it stands.
	vals := make([]tensor.Value, m)
	if keysSorted(keys) {
		copy(vals, x.Vals)
	} else {
		perm := parallel.SortColumns(m, keys)
		for l := range keys {
			sorted := make([]tensor.Index, m)
			for i, p := range perm {
				sorted[i] = keys[l][p]
			}
			keys[l] = sorted
		}
		for i, p := range perm {
			vals[i] = x.Vals[p]
		}
	}

	// A node at level l is a maximal run of entries agreeing on
	// keys[0..l]; from the first Singleton level down, and at the leaf
	// (which parallels Vals), every entry is its own node.
	flat := nlev - 1
	for l, d := range sig.Levels {
		if d.Kind == Singleton {
			flat = l
			break
		}
	}
	crd, ptr := tensor.FiberTree(keys, flat)
	h := &Hierarchy{
		Sig:       sig,
		Dims:      append([]tensor.Index(nil), x.Dims...),
		ModeOrder: append([]int(nil), modeOrder...),
		Crd:       crd,
		Ptr:       ptr,
		Vals:      vals,
	}

	// Dense levels materialize their full extent, bottom-up so child
	// numbering is final when a parent level expands.
	for l := nlev - 1; l >= 0; l-- {
		if sig.Levels[l].Kind == Dense {
			expandDense(h, l)
		}
	}
	return h, nil
}

// levelMask returns the key mask of level l: wide open unless a higher
// partial level of the same slot already owns the upper bits.
func levelMask(sig Signature, l int) tensor.Index {
	d := sig.Levels[l]
	for j := l - 1; j >= 0; j-- {
		p := sig.Levels[j]
		if p.Slot == d.Slot && p.Partial {
			width := uint(p.Shift - d.Shift)
			return tensor.Index(1)<<width - 1
		}
	}
	return ^tensor.Index(0)
}

// denseExtent returns how many coordinates a dense level enumerates:
// the stored bit-range of the slot's dimension.
func denseExtent(h *Hierarchy, l int) int {
	d := h.Sig.Levels[l]
	dim := h.Dims[h.ModeOrder[d.Slot]]
	if dim == 0 {
		return 0
	}
	ext := int((dim-1)>>d.Shift) + 1
	if mask := levelMask(h.Sig, l); tensor.Index(ext) > mask+1 && mask != ^tensor.Index(0) {
		ext = int(mask) + 1
	}
	return ext
}

// expandDense rewrites level l so every parent owns exactly extent
// children (coordinates 0..extent-1), inserting empty nodes for absent
// coordinates; a dense leaf stores explicit zeros.
func expandDense(h *Hierarchy, l int) {
	ext := denseExtent(h, l)
	parents := 1
	if l > 0 {
		parents = h.NumNodes(l - 1)
	}
	last := h.Depth() - 1
	newCrd := make([]tensor.Index, 0, parents*ext)
	var newPtr []int64
	var newVals []tensor.Value
	if l < last {
		newPtr = make([]int64, 0, parents*ext+1)
	} else {
		newVals = make([]tensor.Value, 0, parents*ext)
	}
	lo, hi := 0, h.NumNodes(l)
	for p := 0; p < parents; p++ {
		if l > 0 {
			lo, hi = int(h.Ptr[l-1][p]), int(h.Ptr[l-1][p+1])
		}
		q := lo
		for c := 0; c < ext; c++ {
			newCrd = append(newCrd, tensor.Index(c))
			present := q < hi && h.Crd[l][q] == tensor.Index(c)
			if l < last {
				if present || q < hi {
					newPtr = append(newPtr, h.Ptr[l][q])
				} else {
					// Past the parent's last child: an empty range pinned at
					// the parent's end (Ptr[l][hi] is always valid — it is the
					// next parent's first child, or the level's end).
					newPtr = append(newPtr, h.Ptr[l][hi])
				}
			} else {
				if present {
					newVals = append(newVals, h.Vals[q])
				} else {
					newVals = append(newVals, 0)
				}
			}
			if present {
				q++
			}
		}
	}
	h.Crd[l] = newCrd
	if l < last {
		newPtr = append(newPtr, int64(len(h.Crd[l+1])))
		h.Ptr[l] = newPtr
	} else {
		h.Vals = newVals
	}
	if l > 0 {
		ptr := make([]int64, parents+1)
		for p := 0; p <= parents; p++ {
			ptr[p] = int64(p * ext)
		}
		h.Ptr[l-1] = ptr
	}
}

// keysSorted reports whether the entries are already in lexicographic
// order of their key tuples.
func keysSorted(keys [][]tensor.Index) bool {
	for i := 1; i < len(keys[0]); i++ {
		for _, ks := range keys {
			if ks[i-1] < ks[i] {
				break
			}
			if ks[i-1] > ks[i] {
				return false
			}
		}
	}
	return true
}
