package levels

import (
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// rescanBuild is Build as it was before the radix sort and the linear
// assembly: comparator sort on the level keys, one run-detection scan
// per level, parent pointers by binary search over the node starts. It
// is the golden reference Build must reproduce array for array.
func rescanBuild(x *tensor.COO, sig Signature, modeOrder []int) *Hierarchy {
	nlev := len(sig.Levels)
	m := x.NNZ()
	keys := make([][]tensor.Index, nlev)
	for l, d := range sig.Levels {
		mask := levelMask(sig, l)
		ks := make([]tensor.Index, m)
		for i, c := range x.Inds[modeOrder[d.Slot]] {
			ks[i] = (c >> d.Shift) & mask
		}
		keys[l] = ks
	}
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		for l := 0; l < nlev; l++ {
			if ka, kb := keys[l][a], keys[l][b]; ka != kb {
				return ka < kb
			}
		}
		return false
	})
	for l := range keys {
		sorted := make([]tensor.Index, m)
		for i, p := range perm {
			sorted[i] = keys[l][p]
		}
		keys[l] = sorted
	}
	vals := make([]tensor.Value, m)
	for i, p := range perm {
		vals[i] = x.Vals[p]
	}
	h := &Hierarchy{
		Sig:       sig,
		Dims:      append([]tensor.Index(nil), x.Dims...),
		ModeOrder: append([]int(nil), modeOrder...),
		Crd:       make([][]tensor.Index, nlev),
		Ptr:       make([][]int64, nlev-1),
		Vals:      vals,
	}
	brk := make([]bool, m)
	var starts, prevStarts []int64
	for l := 0; l < nlev; l++ {
		always := sig.Levels[l].Kind == Singleton || l == nlev-1
		starts = starts[:0]
		for i := 0; i < m; i++ {
			if i == 0 || always || brk[i] || keys[l][i-1] != keys[l][i] {
				brk[i] = true
				starts = append(starts, int64(i))
			}
		}
		crd := make([]tensor.Index, len(starts))
		for n, s := range starts {
			crd[n] = keys[l][s]
		}
		h.Crd[l] = crd
		if l > 0 {
			ptr := make([]int64, len(prevStarts)+1)
			for i, s := range prevStarts {
				pos, _ := slices.BinarySearch(starts, s)
				ptr[i] = int64(pos)
			}
			ptr[len(prevStarts)] = int64(len(starts))
			h.Ptr[l-1] = ptr
		}
		prevStarts = append(prevStarts[:0], starts...)
	}
	for l := nlev - 1; l >= 0; l-- {
		if sig.Levels[l].Kind == Dense {
			expandDense(h, l)
		}
	}
	return h
}

func TestGoldenBuild(t *testing.T) {
	for _, c := range tensortest.Corpus(t) {
		order := c.X.Order()
		sigs := allSigs(order)
		if order == 3 && c.X.NNZ() <= 300 && slices.Max(c.X.Dims) <= 2000 { // a dense level multiplies nodes by its extent
			sigs["dense-leaf"] = Signature{Name: "dense-leaf", Levels: []LevelDesc{
				{Kind: Compressed, Slot: 0}, {Kind: Compressed, Slot: 1}, {Kind: Dense, Slot: 2},
			}}
		}
		for name, sig := range sigs {
			for i, mo := range tensortest.ModeOrders(order) {
				if order > 3 && i%4 != 1 {
					continue // a quarter of the order-4 permutations is plenty
				}
				// Pre-sorted input takes Build's no-sort path; it must
				// land on the same arrays as the unsorted tensor does.
				for _, x := range []*tensor.COO{c.X, tensortest.OracleSorted(c.X, mo)} {
					want := rescanBuild(x, sig, mo)
					got, err := Build(x, sig, mo)
					if err != nil {
						t.Fatalf("%s %s %v: %v", c.Name, name, mo, err)
					}
					if err := got.Validate(); err != nil {
						t.Fatalf("%s %s %v: %v", c.Name, name, mo, err)
					}
					if !slices.Equal(got.Vals, want.Vals) {
						t.Fatalf("%s %s %v: values differ from the comparator-sort build", c.Name, name, mo)
					}
					for l := range want.Crd {
						if !slices.Equal(got.Crd[l], want.Crd[l]) {
							t.Fatalf("%s %s %v: Crd[%d] differs from the comparator-sort build", c.Name, name, mo, l)
						}
					}
					for l := range want.Ptr {
						if !slices.Equal(got.Ptr[l], want.Ptr[l]) {
							t.Fatalf("%s %s %v: Ptr[%d] differs from the comparator-sort build", c.Name, name, mo, l)
						}
					}
				}
			}
		}
	}
}
