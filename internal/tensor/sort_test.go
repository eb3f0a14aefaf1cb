package tensor

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// comparatorSorted orders a copy of x by perm with sort.SliceStable over
// the lexicographic predicate — what Sort did before it became a keyed
// radix sort. Both are stable, so Sort must match it entry for entry,
// duplicates included.
func comparatorSorted(x *COO, perm []int) *COO {
	idx := make([]int32, x.NNZ())
	for i := range idx {
		idx[i] = int32(i)
	}
	sort.SliceStable(idx, func(i, j int) bool {
		a, b := idx[i], idx[j]
		for _, n := range perm {
			if x.Inds[n][a] != x.Inds[n][b] {
				return x.Inds[n][a] < x.Inds[n][b]
			}
		}
		return false
	})
	out := x.Clone()
	out.Inds, out.Vals = x.gather(idx)
	return out
}

func sameEntries(a, b *COO) bool {
	if !slices.Equal(a.Vals, b.Vals) {
		return false
	}
	for n := range a.Inds {
		if !slices.Equal(a.Inds[n], b.Inds[n]) {
			return false
		}
	}
	return true
}

// dupTensor draws coordinates from a small range so many repeat; values
// number the entries, which makes any instability visible.
func dupTensor(seed int64, dims []Index, nnz int) *COO {
	rng := rand.New(rand.NewSource(seed))
	x := NewCOO(dims, nnz)
	idx := make([]Index, len(dims))
	for i := 0; i < nnz; i++ {
		for n, d := range dims {
			idx[n] = Index(rng.Intn(int(d)))
		}
		x.Append(idx, Value(i))
	}
	return x
}

func TestSortMatchesComparatorSort(t *testing.T) {
	cases := []*COO{
		dupTensor(1, []Index{4, 3, 5}, 400),              // heavy duplicates
		dupTensor(2, []Index{1, 900, 1}, 300),            // modes of size one
		dupTensor(3, []Index{70000, 3, 70000, 2}, 20000), // past the chunking threshold
		dupTensor(4, []Index{7}, 50),
		NewCOO([]Index{3, 3}, 0),
	}
	wide := NewCOO([]Index{^Index(0), ^Index(0)}, 0) // indices up to 2^32-2
	for i := 0; i < 500; i++ {
		wide.Append([]Index{^Index(0) - 1 - Index(i%3), Index(i*7919) << 12}, Value(i))
	}
	cases = append(cases, wide)
	for ci, x := range cases {
		perms := [][]int{ModeOrder(x.Order(), 0), ModeOrder(x.Order(), x.Order()-1)}
		for _, perm := range perms {
			want := comparatorSorted(x, perm)
			got := x.Clone()
			got.Sort(perm)
			if !sameEntries(got, want) {
				t.Fatalf("case %d perm %v: Sort differs from the comparator sort", ci, perm)
			}
			if !got.IsSortedBy(perm) {
				t.Fatalf("case %d perm %v: order not recorded", ci, perm)
			}
		}
	}
}

func TestSortedBy(t *testing.T) {
	x := dupTensor(5, []Index{30, 20, 10}, 500)
	natural := []int{0, 1, 2}
	other := []int{2, 0, 1}

	// Unordered data: a sorted copy, the receiver untouched.
	before := x.Clone()
	s := x.SortedBy(other)
	if !sameEntries(x, before) || x.sortOrder != nil {
		t.Fatal("SortedBy modified its receiver")
	}
	if !s.IsSortedBy(other) || !sameEntries(s, comparatorSorted(x, other)) {
		t.Fatal("SortedBy copy is not the stable sort of the receiver")
	}
	if &s.Vals[0] == &x.Vals[0] || &s.Inds[0][0] == &x.Inds[0][0] {
		t.Fatal("sorted copy shares arrays with the receiver")
	}

	// Known order: the receiver itself.
	if s.SortedBy(other) != s {
		t.Fatal("SortedBy of a tensor known to be in order must return the receiver")
	}

	// Ordered data that does not know it (a tensor read from a file): a
	// view sharing the arrays, the receiver still untouched.
	file := comparatorSorted(x, natural)
	if file.sortOrder != nil {
		t.Fatal("test setup: the unordered clone must not claim an order")
	}
	v := file.SortedBy(natural)
	if v == file || !v.IsSortedBy(natural) {
		t.Fatal("ordered data should come back as a view that records the order")
	}
	if &v.Vals[0] != &file.Vals[0] || &v.Inds[2][0] != &file.Inds[2][0] {
		t.Fatal("view of ordered data must share the receiver's arrays")
	}
	if file.sortOrder != nil {
		t.Fatal("SortedBy recorded the order on its receiver")
	}

	// Degenerate inputs.
	empty := NewCOO([]Index{2, 2}, 0)
	if e := empty.SortedBy([]int{1, 0}); e.NNZ() != 0 || !e.IsSortedBy([]int{1, 0}) {
		t.Fatal("SortedBy of an empty tensor")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SortedBy with an invalid permutation must panic like Sort")
		}
	}()
	x.SortedBy([]int{0, 0, 1})
}

func TestFiberTree(t *testing.T) {
	// Sorted (i, j, k) entries:
	//   (0,0,1) (0,0,4) (0,2,0) (3,1,1) (3,1,1) (3,5,2)
	cols := [][]Index{
		{0, 0, 0, 3, 3, 3},
		{0, 0, 2, 1, 1, 5},
		{1, 4, 0, 1, 1, 2},
	}
	ids, ptr := FiberTree(cols, 2)
	wantIDs := [][]Index{{0, 3}, {0, 2, 1, 5}, {1, 4, 0, 1, 1, 2}}
	wantPtr := [][]int64{{0, 2, 4}, {0, 2, 3, 5, 6}}
	for l := range wantIDs {
		if !slices.Equal(ids[l], wantIDs[l]) {
			t.Fatalf("ids[%d] = %v, want %v", l, ids[l], wantIDs[l])
		}
	}
	for l := range wantPtr {
		if !slices.Equal(ptr[l], wantPtr[l]) {
			t.Fatalf("ptr[%d] = %v, want %v", l, ptr[l], wantPtr[l])
		}
	}
	if &ids[2][0] != &cols[2][0] {
		t.Fatal("the leaf level must alias its column")
	}

	// flat = 1: every entry is its own node from level 1 down (COO).
	ids, ptr = FiberTree(cols, 1)
	if !slices.Equal(ids[0], []Index{0, 3}) || !slices.Equal(ptr[0], []int64{0, 3, 6}) {
		t.Fatalf("flat=1 root: ids %v ptr %v", ids[0], ptr[0])
	}
	if !slices.Equal(ids[1], cols[1]) || !slices.Equal(ptr[1], []int64{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("flat=1 level 1: ids %v ptr %v", ids[1], ptr[1])
	}

	// flat = 0 and out-of-range flats clamp.
	ids, ptr = FiberTree(cols, 0)
	if len(ids[0]) != 6 || !slices.Equal(ptr[0], []int64{0, 1, 2, 3, 4, 5, 6}) {
		t.Fatalf("flat=0: ids %v ptr %v", ids[0], ptr[0])
	}
	ids, _ = FiberTree(cols, 99)
	if !slices.Equal(ids[1], wantIDs[1]) {
		t.Fatalf("flat beyond the leaf must clamp to it: %v", ids[1])
	}

	// No entries: empty levels, pointer arrays holding only the sentinel.
	ids, ptr = FiberTree([][]Index{{}, {}, {}}, 2)
	if len(ids[0]) != 0 || len(ids[2]) != 0 || !slices.Equal(ptr[0], []int64{0}) || !slices.Equal(ptr[1], []int64{0}) {
		t.Fatalf("empty input: ids %v ptr %v", ids, ptr)
	}
	if ids, ptr = FiberTree(nil, 0); ids != nil || ptr != nil {
		t.Fatal("no columns must give no levels")
	}
}

func TestUnfoldTree(t *testing.T) {
	// The tree of TestFiberTree, unfolded to every depth: FiberTree's
	// inverse gives back, per node of the deepest level asked for, the
	// key columns it was assembled from.
	cols := [][]Index{
		{0, 0, 0, 3, 3, 3},
		{0, 0, 2, 1, 1, 5},
		{1, 4, 0, 1, 1, 2},
	}
	ids, ptr := FiberTree(cols, 2)
	got := UnfoldTree(ids, ptr, []int{0, 1, 2}, []uint8{0, 0, 0}, 3)
	for l := range cols {
		if !slices.Equal(got[l], cols[l]) {
			t.Fatalf("unfolded to the leaves, column %d = %v, want %v", l, got[l], cols[l])
		}
	}
	// To level 1 (the fibers of the last column), into columns 2 and 0
	// of four: one entry per level-1 node, unnamed columns stay nil.
	got = UnfoldTree(ids, ptr, []int{2, 0}, []uint8{0, 0}, 4)
	if !slices.Equal(got[2], []Index{0, 0, 3, 3}) || !slices.Equal(got[0], []Index{0, 2, 1, 5}) || got[1] != nil || got[3] != nil {
		t.Fatalf("unfolded to level 1: %v", got)
	}
	// Two levels assembling one coordinate from bit ranges.
	got = UnfoldTree(ids, ptr, []int{0, 0}, []uint8{4, 0}, 1)
	if !slices.Equal(got[0], []Index{0x00, 0x02, 0x31, 0x35}) {
		t.Fatalf("levels sharing a column: %#x", got[0])
	}
	// A node without children (dense levels have them) owns no entry.
	ids = [][]Index{{7, 8, 9}, {1, 2, 3}}
	ptr = [][]int64{{0, 2, 2, 3}}
	got = UnfoldTree(ids, ptr, []int{0, 1}, []uint8{0, 0}, 2)
	if !slices.Equal(got[0], []Index{7, 7, 9}) || !slices.Equal(got[1], []Index{1, 2, 3}) {
		t.Fatalf("childless node: %v", got)
	}
	// No entries.
	ids, ptr = FiberTree([][]Index{{}, {}, {}}, 2)
	got = UnfoldTree(ids, ptr, []int{0, 1}, []uint8{0, 0}, 2)
	if len(got) != 2 || len(got[0]) != 0 || len(got[1]) != 0 {
		t.Fatalf("empty tree: %v", got)
	}
}

// allPerms lists every permutation of 0..n-1.
func allPerms(n int) [][]int {
	if n == 0 {
		return [][]int{{}}
	}
	var out [][]int
	for _, p := range allPerms(n - 1) {
		for at := 0; at <= len(p); at++ {
			q := append(append(append([]int{}, p[:at]...), n-1), p[at:]...)
			out = append(out, q)
		}
	}
	return out
}

func TestSortPrefix(t *testing.T) {
	natural := NewCOO([]Index{2, 2, 2, 2}, 0)
	natural.SortNatural()
	for _, c := range []struct {
		x            *COO
		target, want []int
	}{
		{natural, []int{1, 2, 3, 0}, []int{1, 2, 3}},
		{natural, []int{0, 1, 2, 3}, []int{}},
		{natural, []int{3, 2, 1, 0}, []int{3, 2, 1}},
		{natural, []int{2, 0, 3, 1}, []int{2, 0, 3}},
		{natural, []int{1, 3, 0, 2}, []int{1, 3}},
		{NewCOO([]Index{2, 2, 2, 2}, 0), []int{1, 2, 3, 0}, []int{1, 2, 3, 0}},
	} {
		if got := c.x.SortPrefix(c.target); !slices.Equal(got, c.want) {
			t.Errorf("recorded %v, target %v: SortPrefix = %v, want %v", c.x.sortOrder, c.target, got, c.want)
		}
	}
}

// TestSortedBySkipsDecidedModes: with an order recorded, SortedBy and
// Sort compare only SortPrefix(perm); for every recorded order and every
// target order they must give, bit for bit, the arrays a full sort of
// the same data with its order forgotten gives — on tensors of order 1-5
// with duplicates, an empty and a one-non-zero tensor, and sizes on both
// sides of the parallel sort's chunking threshold.
func TestSortedBySkipsDecidedModes(t *testing.T) {
	cases := []*COO{
		dupTensor(11, []Index{5}, 200),
		dupTensor(12, []Index{4, 6}, 200),
		dupTensor(13, []Index{3, 5, 4}, 200),
		dupTensor(14, []Index{3, 2, 4, 3}, 200),
		dupTensor(15, []Index{2, 3, 2, 3, 2}, 120),
		NewCOO([]Index{3, 4, 5}, 0),
		dupTensor(16, []Index{3, 4, 5}, 1),
		dupTensor(17, []Index{40, 7}, 1<<14+3000),     // chunked passes
		dupTensor(18, []Index{30, 5, 60}, 1<<14+3000), // chunked passes
	}
	for ci, x0 := range cases {
		perms := allPerms(x0.Order())
		for _, recorded := range perms {
			x := x0.Clone()
			x.Sort(recorded)
			forgotten := &COO{Dims: x.Dims, Inds: x.Inds, Vals: x.Vals}
			for _, perm := range perms {
				want := forgotten.SortedBy(perm)
				if got := x.SortedBy(perm); !sameEntries(got, want) || !got.IsSortedBy(perm) {
					t.Fatalf("case %d recorded %v: SortedBy(%v) differs from the full sort", ci, recorded, perm)
				}
				got := x.Clone()
				if got.Sort(perm); !sameEntries(got, want) {
					t.Fatalf("case %d recorded %v: Sort(%v) differs from the full sort", ci, recorded, perm)
				}
			}
		}
	}
}
