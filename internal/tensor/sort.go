package tensor

import "repro/internal/parallel"

// ModeOrder returns the canonical mode permutation that places mode n last
// and keeps the remaining modes in ascending order. Sorting a tensor with
// this permutation makes the mode-n fibers contiguous, which is the
// pre-processing step of the Ttv and Ttm kernels (Algorithm 1).
func ModeOrder(order, n int) []int { return append(OtherModes(order, n), n) }

// OtherModes lists every mode of an order-`order` tensor except n, in
// ascending order. With n outside [0, order) — conventionally -1 —
// nothing is excluded and the result is the identity (natural) mode
// permutation.
//
// The initial capacity is a constant so that, once OtherModes is inlined
// into a caller that only reads the result (the kernels' per-chunk range
// bodies), the backing array lives on that caller's stack; orders above
// it grow through append as usual.
func OtherModes(order, n int) []int {
	modes := make([]int, 0, 8)
	for m := 0; m < order; m++ {
		if m != n {
			modes = append(modes, m)
		}
	}
	return modes
}

// Sort orders the non-zeros lexicographically by the given mode
// permutation (outermost mode first). It panics if perm is not a
// permutation of the modes.
func (t *COO) Sort(perm []int) {
	if !validPerm(perm, t.Order()) {
		panic("tensor: Sort with invalid mode permutation")
	}
	if t.isSorted(perm) {
		t.sortOrder = append(t.sortOrder[:0], perm...)
		return
	}
	t.Inds, t.Vals = t.gather(t.sortPerm(perm))
	t.sortOrder = append([]int(nil), perm...)
}

// sortPerm returns the permutation of the non-zeros that orders them
// stably by perm: the index arrays themselves are the key columns.
func (t *COO) sortPerm(perm []int) []int32 {
	cols := make([][]uint32, len(perm))
	for k, n := range perm {
		cols[k] = t.Inds[n]
	}
	return parallel.SortColumns(t.NNZ(), cols)
}

// SortedBy returns the tensor's non-zeros ordered by perm without
// modifying the receiver: the receiver itself when it is known to be in
// that order, a view sharing its arrays (with the order recorded) when an
// O(nnz) scan finds the data already ordered — which files usually are,
// though a freshly read tensor does not know it —, and a sorted clone
// otherwise. The result must be treated as read-only.
func (t *COO) SortedBy(perm []int) *COO {
	if t.IsSortedBy(perm) {
		return t
	}
	if !validPerm(perm, t.Order()) {
		panic("tensor: SortedBy with invalid mode permutation")
	}
	if t.isSorted(perm) {
		view := *t
		view.sortOrder = append([]int(nil), perm...)
		return &view
	}
	inds, vals := t.gather(t.sortPerm(perm))
	return &COO{
		Dims:      append([]Index(nil), t.Dims...),
		Inds:      inds,
		Vals:      vals,
		sortOrder: append([]int(nil), perm...),
	}
}

// SortForMode sorts so that mode-n fibers are contiguous, i.e. by
// ModeOrder(order, n).
func (t *COO) SortForMode(n int) { t.Sort(ModeOrder(t.Order(), n)) }

// SortNatural sorts by mode 0, 1, ..., N-1, the natural order in which
// FROSTT files are usually stored.
func (t *COO) SortNatural() { t.Sort(OtherModes(t.Order(), -1)) }

// IsSortedBy reports whether the tensor is known to be sorted by perm.
func (t *COO) IsSortedBy(perm []int) bool {
	if len(t.sortOrder) != len(perm) {
		return false
	}
	for i := range perm {
		if t.sortOrder[i] != perm[i] {
			return false
		}
	}
	return true
}

func validPerm(perm []int, order int) bool {
	if len(perm) != order {
		return false
	}
	seen := make([]bool, order)
	for _, n := range perm {
		if n < 0 || n >= order || seen[n] {
			return false
		}
		seen[n] = true
	}
	return true
}

// isSorted verifies the actual data ordering (used to skip re-sorting
// already-ordered inputs, which FROSTT files typically are).
func (t *COO) isSorted(perm []int) bool {
	m := t.NNZ()
	for x := 1; x < m; x++ {
		for _, n := range perm {
			a, b := t.Inds[n][x-1], t.Inds[n][x]
			if a < b {
				break
			}
			if a > b {
				return false
			}
		}
	}
	return true
}

// gather returns copies of the index and value arrays reordered by the
// given permutation of the non-zeros.
func (t *COO) gather(idx []int32) ([][]Index, []Value) {
	inds := make([][]Index, len(t.Inds))
	for n, src := range t.Inds {
		dst := make([]Index, len(src))
		for i, x := range idx {
			dst[i] = src[x]
		}
		inds[n] = dst
	}
	vals := make([]Value, len(t.Vals))
	for i, x := range idx {
		vals[i] = t.Vals[x]
	}
	return inds, vals
}

// Dedup coalesces duplicate coordinates by summing their values. The
// tensor is left sorted in natural order. Generators use this to realize
// Bernoulli-sampled tensors where the same coordinate may be drawn twice.
func (t *COO) Dedup() {
	if t.NNZ() == 0 {
		return
	}
	t.SortNatural()
	w := 0
	m := t.NNZ()
	for x := 1; x < m; x++ {
		if t.sameCoord(w, x) {
			t.Vals[w] += t.Vals[x]
			continue
		}
		w++
		if w != x {
			for n := range t.Inds {
				t.Inds[n][w] = t.Inds[n][x]
			}
			t.Vals[w] = t.Vals[x]
		}
	}
	for n := range t.Inds {
		t.Inds[n] = t.Inds[n][:w+1]
	}
	t.Vals = t.Vals[:w+1]
}

func (t *COO) sameCoord(a, b int) bool {
	for n := range t.Inds {
		if t.Inds[n][a] != t.Inds[n][b] {
			return false
		}
	}
	return true
}

// FiberPointers returns the start offsets of the mode-n fibers of a tensor
// sorted with SortForMode(n): fptr has one entry per fiber plus a final
// sentinel equal to NNZ. A mode-n fiber is a maximal run of non-zeros that
// agree on every coordinate except mode n. It panics if the tensor is not
// sorted for mode n.
func (t *COO) FiberPointers(n int) []int64 {
	if !t.IsSortedBy(ModeOrder(t.Order(), n)) {
		panic("tensor: FiberPointers requires SortForMode(n) first")
	}
	m, fibers := t.NNZ(), 0
	for x := 0; x < m; x++ {
		if x == 0 || !t.sameFiber(x-1, x, n) {
			fibers++
		}
	}
	fptr := make([]int64, 0, fibers+1)
	for x := 0; x < m; x++ {
		if x == 0 || !t.sameFiber(x-1, x, n) {
			fptr = append(fptr, int64(x))
		}
	}
	return append(fptr, int64(m))
}

func (t *COO) sameFiber(a, b, skip int) bool {
	for n := range t.Inds {
		if n == skip {
			continue
		}
		if t.Inds[n][a] != t.Inds[n][b] {
			return false
		}
	}
	return true
}
