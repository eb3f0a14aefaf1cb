// Package tensortest holds the tensors and the comparator-sort oracle the
// format-conversion golden tests share: every conversion must produce,
// array for array, what the comparison-sort code path it replaced did. It
// also holds the harness every assembly body's contract test runs on
// (CheckBody, bodies.go).
package tensortest

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/tensor"
)

// Case is one named test tensor.
type Case struct {
	Name string
	X    *tensor.COO
}

// Corpus returns the conversion corpus: the three benchmark recipes at
// small nnz, each in natural order and shuffled, plus the degenerate
// shapes conversions get wrong — no non-zeros, modes of size one,
// everything in one fiber, one coordinate repeated, a single mode, an
// order whose interleaved block key exceeds 64 bits, and indices at the
// top of the 32-bit range.
func Corpus(tb testing.TB) []Case {
	tb.Helper()
	var cases []Case
	for _, name := range []string{"irrS", "regS4d", "nell2"} {
		e, err := dataset.ByID(name)
		if err != nil {
			tb.Fatal(err)
		}
		x, err := dataset.Materialize(e, 3000, 11)
		if err != nil {
			tb.Fatal(err)
		}
		cases = append(cases, Case{name, x}, Case{name + "/shuffled", Shuffled(x, 5)})
	}

	rng := rand.New(rand.NewSource(17))
	build := func(name string, dims []tensor.Index, n int, coord func(i, mode int) tensor.Index) {
		x := tensor.NewCOO(dims, n)
		idx := make([]tensor.Index, len(dims))
		for i := 0; i < n; i++ {
			for mode := range idx {
				idx[mode] = coord(i, mode)
			}
			x.Append(idx, tensor.Value(i+1))
		}
		cases = append(cases, Case{name, x})
	}
	build("empty", []tensor.Index{3, 4, 5}, 0, nil)
	build("single", []tensor.Index{9, 9, 9}, 1, func(_, mode int) tensor.Index { return tensor.Index(mode + 3) })
	build("dim-one", []tensor.Index{1, 700, 1}, 60, func(_, mode int) tensor.Index {
		if mode == 1 {
			return tensor.Index(rng.Intn(700))
		}
		return 0
	})
	build("one-fiber", []tensor.Index{5, 5, 2000}, 300, func(_, mode int) tensor.Index {
		if mode == 2 {
			return tensor.Index(rng.Intn(2000))
		}
		return 4
	})
	build("all-duplicates", []tensor.Index{300, 300, 300}, 50, func(_, mode int) tensor.Index { return tensor.Index(129 + mode) })
	build("few-distinct", []tensor.Index{400, 400, 400}, 500, func(_, mode int) tensor.Index { return tensor.Index(rng.Intn(3) * 130) })
	build("order-1", []tensor.Index{5000}, 200, func(int, int) tensor.Index { return tensor.Index(rng.Intn(5000)) })
	build("order-6", []tensor.Index{1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20, 1 << 20}, 400, func(int, int) tensor.Index {
		return tensor.Index(rng.Intn(1<<20)) &^ tensor.Index(rng.Intn(2)*0xFFF00)
	})
	const top = ^tensor.Index(0)
	build("index-top", []tensor.Index{top, 2, top}, 200, func(_, mode int) tensor.Index {
		if mode == 1 {
			return tensor.Index(rng.Intn(2))
		}
		return top - 1 - tensor.Index(rng.Intn(3))*tensor.Index(rng.Int63n(1<<31))
	})
	return cases
}

// Shuffled returns a copy of x with its non-zeros in a random order.
func Shuffled(x *tensor.COO, seed int64) *tensor.COO {
	return gathered(x, rand.New(rand.NewSource(seed)).Perm(x.NNZ()))
}

// OracleSorted returns a copy of x ordered by the mode permutation perm
// with the comparison sort the conversions used before the radix sort:
// sort.SliceStable over the lexicographic predicate. The copy knows its
// order (IsSortedBy(perm) holds).
func OracleSorted(x *tensor.COO, perm []int) *tensor.COO {
	idx := make([]int, x.NNZ())
	for i := range idx {
		idx[i] = i
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
	s := gathered(x, idx)
	s.Sort(perm) // already ordered: only records the order
	return s
}

func gathered(x *tensor.COO, idx []int) *tensor.COO {
	out := tensor.NewCOO(x.Dims, x.NNZ())
	coord := make([]tensor.Index, x.Order())
	for _, i := range idx {
		for n := range coord {
			coord[n] = x.Inds[n][i]
		}
		out.Append(coord, x.Vals[i])
	}
	return out
}

// ModeOrders returns every permutation of the modes of an order-n tensor
// for n <= 4, and the n rotations beyond that.
func ModeOrders(n int) [][]int {
	if n > 4 {
		out := make([][]int, n)
		for r := range out {
			for m := 0; m < n; m++ {
				out[r] = append(out[r], (m+r)%n)
			}
		}
		return out
	}
	var out [][]int
	var rec func(prefix []int, used uint)
	rec = func(prefix []int, used uint) {
		if len(prefix) == n {
			out = append(out, append([]int(nil), prefix...))
			return
		}
		for m := 0; m < n; m++ {
			if used>>uint(m)&1 == 0 {
				rec(append(prefix, m), used|1<<uint(m))
			}
		}
	}
	rec(nil, 0)
	return out
}

// MttkrpCases returns the tensors the tree-Mttkrp identity tests sweep:
// the corpus cases of order >= 2 whose dense factor matrices fit in
// memory (shuffled copies aside — a tree does not see the input order),
// random tensors of orders 2 to 6, and the tree shapes a walk treats
// specially beyond the corpus's empty tensor and single root: every
// fiber a singleton, one long fiber, empty fibers beside two-leaf ones
// (under a dense level), and mixed chains of one-leaf fibers
// ("mixed-chains-order-n", n = 3, 4, 5).
func MttkrpCases(tb testing.TB) []Case {
	tb.Helper()
	var cases []Case
	for _, c := range Corpus(tb) {
		skip := c.X.Order() < 2 || strings.HasSuffix(c.Name, "/shuffled")
		for _, d := range c.X.Dims {
			skip = skip || d > 1<<16
		}
		if !skip {
			cases = append(cases, c)
		}
	}
	rng := rand.New(rand.NewSource(29))
	for order := 2; order <= 6; order++ {
		dims := make([]tensor.Index, order)
		for n := range dims {
			dims[n] = tensor.Index(5 + rng.Intn(12))
		}
		cases = append(cases, Case{fmt.Sprintf("random-order-%d", order), tensor.RandomCOO(dims, 600, rng)})
	}
	diag := tensor.NewCOO([]tensor.Index{300, 300, 300, 300}, 300)
	for i := 0; i < 300; i++ {
		k := tensor.Index(i)
		diag.Append([]tensor.Index{k, 299 - k, k, k / 2}, tensor.Value(i%7)-3)
	}
	line := tensor.NewCOO([]tensor.Index{4, 6, 900}, 900)
	for i := 0; i < 900; i++ {
		line.Append([]tensor.Index{2, 5, tensor.Index(i)}, tensor.Value(rng.NormFloat64()))
	}
	// Under a dense level 1 the three roots' fibers hold {0, 2}, {1, 1} and
	// {2, 0} leaves: every root as many leaves as fibers, only the middle
	// one a leaf per fiber.
	pairs := tensor.NewCOO([]tensor.Index{3, 2, 4}, 6)
	for _, e := range [][]tensor.Index{{0, 1, 0}, {0, 1, 2}, {1, 0, 1}, {1, 1, 3}, {2, 0, 0}, {2, 0, 3}} {
		pairs.Append(e, tensor.Value(e[2])-1.5)
	}
	cases = append(cases, Case{"singleton-fibers", diag}, Case{"long-fiber", line}, Case{"fiber-pairs", pairs})
	for order := 3; order <= 5; order++ {
		cases = append(cases, Case{fmt.Sprintf("mixed-chains-order-%d", order), mixedChains(order)})
	}
	return cases
}

// mixedChains returns an order-n (n >= 3) tensor whose natural-order tree
// mixes, under one parent, nodes directly above the fibers whose fibers
// each hold one leaf (a chain) with nodes that hold a two-leaf fiber, alone
// or beside one-leaf fibers; at order 3 those nodes are the roots. Values
// include +0 and −0.
func mixedChains(order int) *tensor.COO {
	nodes := [][][]tensor.Index{ // node → its fibers → fiber index, leaf indices
		{{0, 0}, {1, 2}, {3, 1}},
		{{0, 0, 1}},
		{{2, 3}, {4, 0, 4}},
		{{5, 5}},
	}
	parents := [][]int{{0, 1, 2, 3}, {0, 3}, {1}, {2, 0}} // the nodes under each parent
	vals := []tensor.Value{1.5, 0, tensor.Value(math.Copysign(0, -1)), -2.25, 3, -1, 0.5}
	dims := make([]tensor.Index, order)
	for n := range dims {
		dims[n] = 16
	}
	x := tensor.NewCOO(dims, 0)
	idx := make([]tensor.Index, order)
	for p, under := range parents {
		for m := 0; m < order-3; m++ {
			idx[m] = tensor.Index(p >> (order - 4 - m)) // order 5: parents 0, 1 share a root
		}
		for k, node := range under {
			idx[order-3] = tensor.Index(4*p + k)
			for _, f := range nodes[node] {
				idx[order-2] = f[0]
				for _, leaf := range f[1:] {
					idx[order-1] = leaf
					x.Append(idx, vals[x.NNZ()%len(vals)])
				}
			}
		}
	}
	return x
}

// SignedFactors returns one Dims[n] × r factor matrix per mode of x with
// entries in (-1, 1).
func SignedFactors(x *tensor.COO, r int, seed int64) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		for i := range mats[n].Data {
			mats[n].Data[i] = tensor.Value(2*rng.Float64() - 1)
		}
	}
	return mats
}

// SameBits fails the test unless got equals want element for element, bit
// for bit.
func SameBits(tb testing.TB, label string, got, want *tensor.Matrix) {
	tb.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		tb.Fatalf("%s: output is %dx%d, want %dx%d", label, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	sameBits(tb, label, got.Data, want.Data)
}
