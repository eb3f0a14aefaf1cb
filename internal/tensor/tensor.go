// Package tensor provides the coordinate (COO) sparse tensor format, its
// semi-sparse variant (sCOO), and the dense matrix/vector operands used by
// the PASTA benchmark kernels.
//
// Conventions follow the paper "A Parallel Sparse Tensor Benchmark Suite on
// CPUs and GPUs" (Li et al., 2020): values are single-precision floats,
// indices are 32-bit, and an Nth-order COO tensor with M non-zeros occupies
// 4(N+1)M bytes.
package tensor

import (
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Value is the scalar element type of all tensors in the suite. The paper
// benchmarks single precision, so Value is float32.
type Value = float32

// Index is the 32-bit coordinate type used by COO and block indices.
type Index = uint32

// ValueBytes and IndexBytes are the in-memory sizes of one Value and one
// Index, derived from the types: every byte count of a tensor, an operand
// or a message is built from them.
const (
	ValueBytes = int64(unsafe.Sizeof(Value(0)))
	IndexBytes = int64(unsafe.Sizeof(Index(0)))
)

// COO is a sparse tensor in coordinate format: one index array per mode and
// a flat value array. It makes no ordering guarantee unless a Sort* method
// has been called; IsSortedBy reports the active ordering.
type COO struct {
	// Dims holds the size of each mode; len(Dims) is the tensor order.
	Dims []Index
	// Inds holds one index array per mode, each of length NNZ().
	Inds [][]Index
	// Vals holds the non-zero values, parallel to the index arrays.
	Vals []Value

	// sortOrder records the mode permutation of the last sort, outermost
	// first, or nil if the ordering is unknown.
	sortOrder []int
}

// NewCOO returns an empty COO tensor with the given mode sizes and capacity
// for M non-zeros. It panics if dims is empty or contains a zero size.
func NewCOO(dims []Index, capacity int) *COO {
	if len(dims) == 0 {
		panic("tensor: NewCOO with no modes")
	}
	for n, d := range dims {
		if d == 0 {
			panic(fmt.Sprintf("tensor: NewCOO mode %d has zero size", n))
		}
	}
	t := &COO{
		Dims: append([]Index(nil), dims...),
		Inds: make([][]Index, len(dims)),
		Vals: make([]Value, 0, capacity),
	}
	for n := range t.Inds {
		t.Inds[n] = make([]Index, 0, capacity)
	}
	return t
}

// Order returns the number of modes.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zero entries.
func (t *COO) NNZ() int { return len(t.Vals) }

// Dim returns the size of mode n.
func (t *COO) Dim(n int) Index { return t.Dims[n] }

// NumEl returns the number of positions in the dense index space as a
// float64 (the product easily overflows int64 for the paper's tensors,
// e.g. regL4d has (8.3M)^4 positions).
func (t *COO) NumEl() float64 {
	p := 1.0
	for _, d := range t.Dims {
		p *= float64(d)
	}
	return p
}

// Density returns NNZ divided by the dense position count.
func (t *COO) Density() float64 {
	n := t.NumEl()
	if n == 0 {
		return 0
	}
	return float64(t.NNZ()) / n
}

// StorageBytes returns the COO storage footprint following the paper's
// accounting: 4(N+1)M bytes (32-bit indices plus 32-bit values).
func (t *COO) StorageBytes() int64 {
	return int64(4*(t.Order()+1)) * int64(t.NNZ())
}

// Append adds one non-zero entry. idx must have one coordinate per mode;
// coordinates are not range-checked here (Validate does that).
func (t *COO) Append(idx []Index, v Value) {
	for n := range t.Inds {
		t.Inds[n] = append(t.Inds[n], idx[n])
	}
	t.Vals = append(t.Vals, v)
	t.sortOrder = nil
}

// AppendIdx3 adds one entry to a third-order tensor without an index slice
// allocation at the call site.
func (t *COO) AppendIdx3(i, j, k Index, v Value) {
	t.Inds[0] = append(t.Inds[0], i)
	t.Inds[1] = append(t.Inds[1], j)
	t.Inds[2] = append(t.Inds[2], k)
	t.Vals = append(t.Vals, v)
	t.sortOrder = nil
}

// Entry copies the coordinates of non-zero m into dst (which must have
// length Order) and returns its value.
func (t *COO) Entry(m int, dst []Index) Value {
	for n := range t.Inds {
		dst[n] = t.Inds[n][m]
	}
	return t.Vals[m]
}

// Clone returns a deep copy, preserving the recorded sort order.
func (t *COO) Clone() *COO {
	c := &COO{
		Dims: append([]Index(nil), t.Dims...),
		Inds: make([][]Index, t.Order()),
		Vals: append([]Value(nil), t.Vals...),
	}
	for n := range t.Inds {
		c.Inds[n] = append([]Index(nil), t.Inds[n]...)
	}
	if t.sortOrder != nil {
		c.sortOrder = append([]int(nil), t.sortOrder...)
	}
	return c
}

// Validate checks structural invariants: matching array lengths, in-range
// coordinates, and finite values. A well-formed tensor is recognised from
// one reduction per array; the entry scan only names the offending entry.
func (t *COO) Validate() error {
	if len(t.Inds) != len(t.Dims) {
		return fmt.Errorf("tensor: %d index arrays for order-%d tensor", len(t.Inds), len(t.Dims))
	}
	m, ok := len(t.Vals), true
	for n, ind := range t.Inds {
		if len(ind) != m {
			return fmt.Errorf("tensor: mode-%d index array has %d entries, want %d", n, len(ind), m)
		}
		ok = ok && maxIndex(ind) < t.Dims[n]
	}
	if ok && allFinite(t.Vals) {
		return nil
	}
	for n, ind := range t.Inds {
		d := t.Dims[n]
		for x, i := range ind {
			if i >= d {
				return fmt.Errorf("tensor: entry %d mode %d index %d out of range [0,%d)", x, n, i, d)
			}
		}
	}
	for x, v := range t.Vals {
		if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
			return fmt.Errorf("tensor: entry %d has non-finite value %v", x, v)
		}
	}
	return nil
}

// maxIndex returns the largest entry of ind, 0 when it is empty.
func maxIndex(ind []Index) Index {
	var a, b, c, d Index
	for k := bodyLen(len(ind)); k > 0; k = bodyLen(len(ind)) {
		a = max(a, maxIndexAVX2(ind[:k]))
		ind = ind[k:]
	}
	for ; len(ind) >= 4; ind = ind[4:] {
		a, b, c, d = max(a, ind[0]), max(b, ind[1]), max(c, ind[2]), max(d, ind[3])
	}
	for _, i := range ind {
		a = max(a, i)
	}
	return max(a, b, c, d)
}

// allFinite reports whether no value is a NaN or an infinity. The body
// takes the maximum of the sign-less bit patterns, as decodeF32 does; in
// Go, v·0 is ±0 for a finite v and NaN for any other, so the products
// sum to zero.
func allFinite(vals []Value) bool {
	for k := bodyLen(len(vals)); k > 0; k = bodyLen(len(vals)) {
		if topF32AVX2(vals[:k]) >= f32NonFinite {
			return false
		}
		vals = vals[k:]
	}
	var a, b, c, d Value
	for ; len(vals) >= 4; vals = vals[4:] {
		a, b, c, d = a+vals[0]*0, b+vals[1]*0, c+vals[2]*0, d+vals[3]*0
	}
	for _, v := range vals {
		a += v * 0
	}
	return a+b+c+d == 0
}

// ErrShapeMismatch is returned by operations whose operands must share
// order and mode sizes.
var ErrShapeMismatch = errors.New("tensor: operand shapes differ")

// SameShape reports whether two tensors have identical order and mode sizes.
func SameShape(a, b *COO) bool {
	if a.Order() != b.Order() {
		return false
	}
	for n := range a.Dims {
		if a.Dims[n] != b.Dims[n] {
			return false
		}
	}
	return true
}

// At returns the value at the given coordinates using a linear scan, and
// whether the coordinate is stored. It is O(M) and intended for tests and
// small tensors only.
func (t *COO) At(idx ...Index) (Value, bool) {
	if len(idx) != t.Order() {
		panic("tensor: At with wrong number of coordinates")
	}
scan:
	for m := 0; m < t.NNZ(); m++ {
		for n := range idx {
			if t.Inds[n][m] != idx[n] {
				continue scan
			}
		}
		return t.Vals[m], true
	}
	return 0, false
}

// String summarizes the tensor without printing its contents.
func (t *COO) String() string {
	return fmt.Sprintf("COO(order=%d dims=%v nnz=%d density=%.3g)", t.Order(), t.Dims, t.NNZ(), t.Density())
}
