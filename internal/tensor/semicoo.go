package tensor

import "fmt"

// SemiCOO is the sCOO format of the paper (§3.1, Figure 1b): a semi-sparse
// tensor whose dense modes are stored as dense arrays per fiber while the
// remaining modes keep explicit COO indices. The Ttm kernel produces its
// output in this format — the product mode becomes dense by the
// sparse-dense property, with R values per surviving fiber.
type SemiCOO struct {
	// Dims holds the size of every mode, dense ones included.
	Dims []Index
	// DenseModes lists the dense modes in ascending order.
	DenseModes []int
	// Inds holds one index array per sparse mode (ascending mode order),
	// each of length NumFibers.
	Inds [][]Index
	// Vals holds NumFibers × DenseSize values, fiber-major, with the dense
	// modes laid out row-major in ascending mode order.
	Vals []Value
}

// NewSemiCOO returns an empty sCOO tensor with capacity for nf fibers.
func NewSemiCOO(dims []Index, denseModes []int, nf int) *SemiCOO {
	t := &SemiCOO{
		Dims:       append([]Index(nil), dims...),
		DenseModes: append([]int(nil), denseModes...),
	}
	for i := 1; i < len(t.DenseModes); i++ {
		if t.DenseModes[i] <= t.DenseModes[i-1] {
			panic("tensor: NewSemiCOO dense modes must be strictly ascending")
		}
	}
	ns := len(dims) - len(denseModes)
	if ns < 0 {
		panic("tensor: NewSemiCOO with more dense modes than modes")
	}
	t.Inds = make([][]Index, ns)
	for i := range t.Inds {
		t.Inds[i] = make([]Index, 0, nf)
	}
	t.Vals = make([]Value, 0, nf*t.DenseSize())
	return t
}

// Order returns the number of modes, dense ones included.
func (t *SemiCOO) Order() int { return len(t.Dims) }

// NumFibers returns the number of stored sparse fibers.
func (t *SemiCOO) NumFibers() int {
	if len(t.Inds) == 0 {
		if t.DenseSize() == 0 {
			return 0
		}
		return len(t.Vals) / t.DenseSize()
	}
	return len(t.Inds[0])
}

// DenseSize returns the product of the dense mode sizes (the number of
// values stored per fiber).
func (t *SemiCOO) DenseSize() int {
	p := 1
	for _, n := range t.DenseModes {
		p *= int(t.Dims[n])
	}
	return p
}

// SparseModes returns the sparse modes in ascending order.
func (t *SemiCOO) SparseModes() []int {
	out := make([]int, 0, t.Order()-len(t.DenseModes))
	d := 0
	for n := 0; n < t.Order(); n++ {
		if d < len(t.DenseModes) && t.DenseModes[d] == n {
			d++
			continue
		}
		out = append(out, n)
	}
	return out
}

// IsDenseMode reports whether mode n is stored densely.
func (t *SemiCOO) IsDenseMode(n int) bool {
	for _, d := range t.DenseModes {
		if d == n {
			return true
		}
	}
	return false
}

// FiberVals returns a slice aliasing the dense values of fiber f.
func (t *SemiCOO) FiberVals(f int) []Value {
	ds := t.DenseSize()
	return t.Vals[f*ds : (f+1)*ds]
}

// AppendFiber adds a fiber with the given sparse coordinates (one per
// sparse mode, ascending mode order) and zeroed dense values, returning
// the new fiber's number.
func (t *SemiCOO) AppendFiber(sparseIdx []Index) int {
	if len(sparseIdx) != len(t.Inds) {
		panic("tensor: AppendFiber with wrong number of sparse coordinates")
	}
	for i := range t.Inds {
		t.Inds[i] = append(t.Inds[i], sparseIdx[i])
	}
	t.Vals = append(t.Vals, make([]Value, t.DenseSize())...)
	return t.NumFibers() - 1
}

// ToCOO expands the semi-sparse tensor to coordinate format, dropping
// exact zeros. Intended for tests and small tensors.
func (t *SemiCOO) ToCOO() *COO {
	out := NewCOO(t.Dims, t.NumFibers())
	sparse := t.SparseModes()
	ds := t.DenseSize()
	idx := make([]Index, t.Order())
	denseIdx := make([]Index, len(t.DenseModes))
	for f := 0; f < t.NumFibers(); f++ {
		for si, n := range sparse {
			idx[n] = t.Inds[si][f]
		}
		vals := t.Vals[f*ds : (f+1)*ds]
		for o, v := range vals {
			if v == 0 {
				continue
			}
			t.unravelDense(o, denseIdx)
			for di, n := range t.DenseModes {
				idx[n] = denseIdx[di]
			}
			out.Append(idx, v)
		}
	}
	return out
}

// unravelDense converts a row-major offset within a fiber's dense block
// into per-dense-mode coordinates.
func (t *SemiCOO) unravelDense(off int, dst []Index) {
	for i := len(t.DenseModes) - 1; i >= 0; i-- {
		d := int(t.Dims[t.DenseModes[i]])
		dst[i] = Index(off % d)
		off /= d
	}
}

// Validate checks structural invariants.
func (t *SemiCOO) Validate() error {
	ns := t.Order() - len(t.DenseModes)
	if len(t.Inds) != ns {
		return fmt.Errorf("tensor: sCOO has %d sparse index arrays, want %d", len(t.Inds), ns)
	}
	nf := t.NumFibers()
	for i, ind := range t.Inds {
		if len(ind) != nf {
			return fmt.Errorf("tensor: sCOO sparse mode %d has %d entries, want %d", i, len(ind), nf)
		}
	}
	if len(t.Vals) != nf*t.DenseSize() {
		return fmt.Errorf("tensor: sCOO has %d values, want %d", len(t.Vals), nf*t.DenseSize())
	}
	sparse := t.SparseModes()
	for si, n := range sparse {
		d := t.Dims[n]
		for x, i := range t.Inds[si] {
			if i >= d {
				return fmt.Errorf("tensor: sCOO fiber %d mode %d index %d out of range [0,%d)", x, n, i, d)
			}
		}
	}
	return nil
}

func (t *SemiCOO) String() string {
	return fmt.Sprintf("sCOO(order=%d dims=%v dense=%v fibers=%d)", t.Order(), t.Dims, t.DenseModes, t.NumFibers())
}
