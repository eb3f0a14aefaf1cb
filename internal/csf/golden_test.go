package csf

import (
	"slices"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// rescanFromCOO is FromCOO as it was before the radix sort and the
// linear assembly: comparison-sorted input, one run-detection rescan per
// level, node starts recomputed per level and child pointers found by
// binary search. It is the golden reference FromCOO must reproduce.
func rescanFromCOO(t *tensor.COO, modeOrder []int) *CSF {
	order := t.Order()
	xs := tensortest.OracleSorted(t, modeOrder)
	m := xs.NNZ()
	c := &CSF{
		Dims:      append([]tensor.Index(nil), t.Dims...),
		ModeOrder: append([]int(nil), modeOrder...),
		FIds:      make([][]tensor.Index, order),
		FPtr:      make([][]int64, order-1),
		Vals:      append([]tensor.Value(nil), xs.Vals...),
	}
	sameUpTo := func(level, a, b int) bool {
		for l := 0; l <= level; l++ {
			if n := modeOrder[l]; xs.Inds[n][a] != xs.Inds[n][b] {
				return false
			}
		}
		return true
	}
	nodeStarts := func(level int) []int64 {
		var starts []int64
		for x := 0; x < m; x++ {
			if x == 0 || !sameUpTo(level, x-1, x) {
				starts = append(starts, int64(x))
			}
		}
		return starts
	}
	leaf := order - 1
	c.FIds[leaf] = append([]tensor.Index(nil), xs.Inds[modeOrder[leaf]]...)
	for l := leaf - 1; l >= 0; l-- {
		var fids []tensor.Index
		var fptr []int64
		for x := 0; x < m; x++ {
			if x == 0 || !sameUpTo(l, x-1, x) {
				fids = append(fids, xs.Inds[modeOrder[l]][x])
				fptr = append(fptr, int64(x))
			}
		}
		fptr = append(fptr, int64(m))
		if l != leaf-1 {
			childStarts := nodeStarts(l + 1)
			for i, p := range fptr {
				pos, _ := slices.BinarySearch(childStarts, p)
				fptr[i] = int64(pos)
			}
		}
		c.FPtr[l] = fptr
		c.FIds[l] = fids
	}
	return c
}

func TestGoldenFromCOO(t *testing.T) {
	for _, c := range tensortest.Corpus(t) {
		for _, mo := range tensortest.ModeOrders(c.X.Order()) {
			want := rescanFromCOO(c.X, mo)
			got, err := FromCOO(c.X, mo)
			if err != nil {
				t.Fatalf("%s %v: %v", c.Name, mo, err)
			}
			if err := got.Validate(); err != nil {
				t.Fatalf("%s %v: %v", c.Name, mo, err)
			}
			if !slices.Equal(got.Vals, want.Vals) {
				t.Fatalf("%s %v: values differ from the comparator-sort build", c.Name, mo)
			}
			for l := range want.FIds {
				if !slices.Equal(got.FIds[l], want.FIds[l]) {
					t.Fatalf("%s %v: FIds[%d] differs from the comparator-sort build", c.Name, mo, l)
				}
			}
			for l := range want.FPtr {
				if !slices.Equal(got.FPtr[l], want.FPtr[l]) {
					t.Fatalf("%s %v: FPtr[%d] = %v, comparator-sort build has %v", c.Name, mo, l, got.FPtr[l], want.FPtr[l])
				}
			}
			// The tree must not alias the input it was built from.
			if n := c.X.NNZ(); n > 0 && &got.FIds[len(mo)-1][0] == &c.X.Inds[mo[len(mo)-1]][0] {
				t.Fatalf("%s %v: leaf ids alias the input tensor", c.Name, mo)
			}
		}
	}
}
