package hicoo

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The conversions used to order non-zeros with a comparator merge sort
// over mortonCompareAt; that code path lives on here as the golden
// reference. Both it and the keyed radix sort are stable, so FromCOO and
// FromCOOModes must reproduce its arrays exactly.

// mortonCompareAt compares the Morton order of the block tuples of
// non-zeros x and y drawn column-wise from binds (one array per mode),
// returning -1, 0, or +1: MortonLess without materializing the tuples.
func mortonCompareAt(binds [][]tensor.Index, x, y int) int {
	msd := 0
	var best tensor.Index
	equal := true
	for n := range binds {
		d := binds[n][x] ^ binds[n][y]
		if d != 0 {
			equal = false
		}
		if lessMSB(best, d) {
			msd = n
			best = d
		}
	}
	if equal {
		return 0
	}
	if binds[msd][x] < binds[msd][y] {
		return -1
	}
	return 1
}

// comparatorFromCOOModes is FromCOOModes as it was before the radix
// sort: comparator sort, then block assembly by appending.
func comparatorFromCOOModes(t *tensor.COO, compModes []int, blockBits uint8) *GHiCOO {
	m := t.NNZ()
	mask := tensor.Index(1)<<blockBits - 1
	g := &GHiCOO{
		Dims:      append([]tensor.Index(nil), t.Dims...),
		CompModes: append([]int(nil), compModes...),
		BlockBits: blockBits,
	}
	uncomp := g.UncompModes()
	binds := make([][]tensor.Index, len(compModes))
	for ci, n := range compModes {
		binds[ci] = make([]tensor.Index, m)
		for x := 0; x < m; x++ {
			binds[ci][x] = t.Inds[n][x] >> blockBits
		}
	}
	perm := make([]int32, m)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		x, y := perm[i], perm[j]
		switch mortonCompareAt(binds, int(x), int(y)) {
		case -1:
			return true
		case 1:
			return false
		}
		for _, n := range compModes {
			if ea, eb := t.Inds[n][x]&mask, t.Inds[n][y]&mask; ea != eb {
				return ea < eb
			}
		}
		for _, n := range uncomp {
			if ia, ib := t.Inds[n][x], t.Inds[n][y]; ia != ib {
				return ia < ib
			}
		}
		return false
	})

	g.BInds = make([][]tensor.Index, len(compModes))
	g.EInds = make([][]uint8, len(compModes))
	for ci := range compModes {
		g.EInds[ci] = make([]uint8, m)
	}
	g.UInds = make([][]tensor.Index, len(uncomp))
	for ui := range uncomp {
		g.UInds[ui] = make([]tensor.Index, m)
	}
	g.Vals = make([]tensor.Value, m)
	prev := make([]tensor.Index, len(compModes))
	for w, x := range perm {
		newBlock := w == 0
		for ci := range compModes {
			if binds[ci][x] != prev[ci] {
				newBlock = true
			}
		}
		if newBlock {
			g.BPtr = append(g.BPtr, int64(w))
			for ci := range compModes {
				g.BInds[ci] = append(g.BInds[ci], binds[ci][x])
				prev[ci] = binds[ci][x]
			}
		}
		for ci, n := range compModes {
			g.EInds[ci][w] = uint8(t.Inds[n][x] & mask)
		}
		for ui, n := range uncomp {
			g.UInds[ui][w] = t.Inds[n][x]
		}
		g.Vals[w] = t.Vals[x]
	}
	g.BPtr = append(g.BPtr, int64(m))
	return g
}

func sameArrays[T comparable](t *testing.T, what string, got, want [][]T) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d arrays, want %d", what, len(got), len(want))
	}
	for i := range want {
		if !slices.Equal(got[i], want[i]) {
			t.Fatalf("%s[%d] differs from the comparator-sort build", what, i)
		}
	}
}

func TestGoldenFromCOO(t *testing.T) {
	for _, c := range tensortest.Corpus(t) {
		for _, bits := range []uint8{1, DefaultBlockBits, MaxBlockBits} {
			all := make([]int, c.X.Order())
			for n := range all {
				all[n] = n
			}
			want := comparatorFromCOOModes(c.X, all, bits)
			got := FromCOO(c.X, bits)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s bits=%d: %v", c.Name, bits, err)
			}
			if !slices.Equal(got.BPtr, want.BPtr) || !slices.Equal(got.Vals, want.Vals) {
				t.Fatalf("%s bits=%d: block pointers or values differ from the comparator-sort build", c.Name, bits)
			}
			sameArrays(t, c.Name+" BInds", got.BInds, want.BInds)
			sameArrays(t, c.Name+" EInds", got.EInds, want.EInds)
		}
	}
}

func TestGoldenFromCOOModes(t *testing.T) {
	for _, c := range tensortest.Corpus(t) {
		order := c.X.Order()
		// Every way of leaving one mode uncompressed, plus leaving two.
		var sets [][]int
		for skip := 0; skip < order && order > 1; skip++ {
			var comp []int
			for n := 0; n < order; n++ {
				if n != skip {
					comp = append(comp, n)
				}
			}
			sets = append(sets, comp)
		}
		if order > 2 {
			sets = append(sets, []int{1}, []int{0, order - 1})
		}
		for _, comp := range sets {
			want := comparatorFromCOOModes(c.X, comp, DefaultBlockBits)
			got := FromCOOModes(c.X, comp, DefaultBlockBits)
			if err := got.Validate(); err != nil {
				t.Fatalf("%s comp=%v: %v", c.Name, comp, err)
			}
			if !slices.Equal(got.BPtr, want.BPtr) || !slices.Equal(got.Vals, want.Vals) {
				t.Fatalf("%s comp=%v: block pointers or values differ from the comparator-sort build", c.Name, comp)
			}
			sameArrays(t, c.Name+" BInds", got.BInds, want.BInds)
			sameArrays(t, c.Name+" EInds", got.EInds, want.EInds)
			sameArrays(t, c.Name+" UInds", got.UInds, want.UInds)
		}
	}
}

// TestPackKeyOrdersLikeMortonLess pins the key packing on its own: for
// random tuples of order 1-8 (up to 200 key bits), comparing the packed
// columns lexicographically must agree with MortonLess on the block
// indices and then with the element indices.
func TestPackKeyOrdersLikeMortonLess(t *testing.T) {
	for order := 1; order <= 8; order++ {
		dims := make([]tensor.Index, order)
		for n := range dims {
			dims[n] = ^tensor.Index(0)
		}
		x := tensor.NewCOO(dims, 0)
		rng := rand.New(rand.NewSource(int64(order)))
		idx := make([]tensor.Index, order)
		for i := 0; i < 300; i++ {
			for n := range idx {
				// Narrow some modes and tie others so every branch of the
				// comparison is taken.
				idx[n] = tensor.Index(rng.Uint32()) >> uint(rng.Intn(3)*11) &^ (tensor.Index(rng.Intn(2)) * 0xFFFFFF80)
			}
			x.Append(idx, 1)
		}
		modes := make([]int, order)
		for n := range modes {
			modes[n] = n
		}
		cols := packKey(x.Inds, x.NNZ(), blockKeyLayout(x, modes, DefaultBlockBits))
		tuple := func(i int, shift uint, mask tensor.Index) []tensor.Index {
			out := make([]tensor.Index, order)
			for n := range out {
				out[n] = x.Inds[n][i] >> shift & mask
			}
			return out
		}
		for a := 0; a < x.NNZ(); a++ {
			for b := 0; b < x.NNZ(); b++ {
				ba, bb := tuple(a, DefaultBlockBits, ^tensor.Index(0)), tuple(b, DefaultBlockBits, ^tensor.Index(0))
				want := MortonLess(ba, bb)
				if slices.Equal(ba, bb) {
					want = slices.Compare(tuple(a, 0, 1<<DefaultBlockBits-1), tuple(b, 0, 1<<DefaultBlockBits-1)) < 0
				}
				got := false
				for _, col := range cols {
					if col[a] != col[b] {
						got = col[a] < col[b]
						break
					}
				}
				if got != want {
					t.Fatalf("order %d: packed key orders %v before %v = %v, MortonLess says %v", order, tuple(a, 0, ^tensor.Index(0)), tuple(b, 0, ^tensor.Index(0)), got, want)
				}
			}
		}
	}
}
