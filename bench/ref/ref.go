// Package ref holds the benchmark's frozen reference implementations:
// textbook loops over plain slices that import nothing from the
// program's kernel, format or runtime packages. Every loop is
// single-threaded over a range; Static and MttkrpPrivatized run them on
// several workers by the plainest schedule there is. Every ratio metric
// (`*_x`) divides the time of one of these by the time of the cell under
// test measured in the same round, so the denominator lives under bench/
// and no later change to internal/ can move it.
//
// Do not optimise this package: its value is that it stays the same.
package ref

import (
	"sort"
	"sync"
)

// COO is a coordinate-format sparse tensor over plain slices.
type COO struct {
	Dims []uint32
	Inds [][]uint32 // Inds[n][x] is the mode-n coordinate of non-zero x
	Vals []float32
}

// Order returns the number of modes.
func (t *COO) Order() int { return len(t.Dims) }

// NNZ returns the number of stored non-zeros.
func (t *COO) NNZ() int { return len(t.Vals) }

// Clone deep-copies t.
func (t *COO) Clone() *COO {
	c := &COO{
		Dims: append([]uint32(nil), t.Dims...),
		Inds: make([][]uint32, len(t.Inds)),
		Vals: append([]float32(nil), t.Vals...),
	}
	for n := range t.Inds {
		c.Inds[n] = append([]uint32(nil), t.Inds[n]...)
	}
	return c
}

// Tew is element-wise addition of two tensors with the same non-zero
// pattern: z = x + y.
func Tew(z, x, y []float32) {
	for i := range z {
		z[i] = x[i] + y[i]
	}
}

// Ts is tensor-times-scalar: z = s * x.
func Ts(z, x []float32, s float32) {
	for i := range z {
		z[i] = x[i] * s
	}
}

// ModeLast returns the mode permutation that keeps the other modes in
// ascending order and puts mode n last, so mode-n fibers are contiguous
// after sorting by it.
func ModeLast(order, n int) []int {
	perm := make([]int, 0, order)
	for m := 0; m < order; m++ {
		if m != n {
			perm = append(perm, m)
		}
	}
	return append(perm, n)
}

type lexSorter struct {
	t    *COO
	perm []int
}

func (s lexSorter) Len() int { return s.t.NNZ() }

func (s lexSorter) Less(a, b int) bool {
	for _, n := range s.perm {
		ia, ib := s.t.Inds[n][a], s.t.Inds[n][b]
		if ia != ib {
			return ia < ib
		}
	}
	return false
}

func (s lexSorter) Swap(a, b int) {
	for _, ind := range s.t.Inds {
		ind[a], ind[b] = ind[b], ind[a]
	}
	s.t.Vals[a], s.t.Vals[b] = s.t.Vals[b], s.t.Vals[a]
}

// Sort orders the non-zeros of t in place, lexicographically by the mode
// permutation perm (outermost first), with sort.Sort.
func Sort(t *COO, perm []int) { sort.Sort(lexSorter{t, perm}) }

// FiberPtr returns the start offsets of the mode-n fibers of a tensor
// sorted by ModeLast(order, n): fiber f spans [ptr[f], ptr[f+1]).
func FiberPtr(t *COO, n int) []int64 {
	ptr := []int64{}
	for x := 0; x < t.NNZ(); x++ {
		if x == 0 || !sameFiber(t, x-1, x, n) {
			ptr = append(ptr, int64(x))
		}
	}
	return append(ptr, int64(t.NNZ()))
}

func sameFiber(t *COO, a, b, skip int) bool {
	for n, ind := range t.Inds {
		if n != skip && ind[a] != ind[b] {
			return false
		}
	}
	return true
}

// Static splits [0, n) into `workers` contiguous ranges of equal length,
// runs f on each in its own goroutine and waits for all of them: the
// textbook static schedule. With one worker f runs on the caller's
// goroutine.
func Static(n, workers int, f func(w, lo, hi int)) {
	if workers < 1 {
		workers = 1
	}
	cuts := make([]int, workers+1)
	for w := range cuts {
		cuts[w] = n * w / workers
	}
	StaticAt(cuts, f)
}

// StaticAt is Static with the ranges given: goroutine w runs f on
// [cuts[w], cuts[w+1]); a single range runs on the caller's goroutine.
func StaticAt(cuts []int, f func(w, lo, hi int)) {
	if len(cuts) <= 2 {
		f(0, cuts[0], cuts[len(cuts)-1])
		return
	}
	var wg sync.WaitGroup
	for w := 0; w+1 < len(cuts); w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w, cuts[w], cuts[w+1])
		}(w)
	}
	wg.Wait()
}

// FiberCuts cuts the fibers behind ptr into `workers` contiguous ranges
// of about equal non-zeros for StaticAt: range w is [cuts[w], cuts[w+1]).
// Equal fiber counts would leave the goroutines of a tensor with skewed
// fiber lengths unequal work.
func FiberCuts(ptr []int64, workers int) []int {
	if workers < 1 {
		workers = 1
	}
	nf := len(ptr) - 1
	cuts := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		want := ptr[nf] * int64(w) / int64(workers)
		cuts[w] = sort.Search(nf, func(f int) bool { return ptr[f] >= want })
	}
	cuts[workers] = nf
	return cuts
}

// Ttv is tensor-times-vector in mode n over fibers [flo, fhi) of a
// fiber-sorted tensor: out[f] = sum over the non-zeros x of fiber f of
// vals[x] * v[ind_n[x]]. Fibers own their outputs, so disjoint fiber
// ranges may run concurrently.
func Ttv(out []float32, t *COO, ptr []int64, n int, v []float32, flo, fhi int) {
	ind := t.Inds[n]
	for f := flo; f < fhi; f++ {
		var s float32
		for x := ptr[f]; x < ptr[f+1]; x++ {
			s += t.Vals[x] * v[ind[x]]
		}
		out[f] = s
	}
}

// Ttm is tensor-times-matrix in mode n over fibers [flo, fhi) of a
// fiber-sorted tensor with a row-major Dims[n] x r matrix u:
// out[f*r+c] = sum over fiber f of vals[x] * u[ind_n[x]*r+c].
func Ttm(out []float32, t *COO, ptr []int64, n int, u []float32, r int, flo, fhi int) {
	ind := t.Inds[n]
	for f := flo; f < fhi; f++ {
		row := out[f*r : (f+1)*r]
		for c := range row {
			row[c] = 0
		}
		for x := ptr[f]; x < ptr[f+1]; x++ {
			val := t.Vals[x]
			urow := u[int(ind[x])*r : (int(ind[x])+1)*r]
			for c := range row {
				row[c] += val * urow[c]
			}
		}
	}
}

// Mttkrp adds the mode-n matricized-tensor-times-Khatri-Rao-product of
// non-zeros [lo, hi) to out: for every non-zero, the Hadamard product of
// the other modes' factor rows, scaled by the value, is added to row
// ind_n of the row-major Dims[n] x r output. mats[m] is the row-major
// Dims[m] x r factor of mode m; mats[n] is not read. scratch holds r
// values. The caller zeroes out.
func Mttkrp(out []float32, t *COO, n int, mats [][]float32, r int, scratch []float32, lo, hi int) {
	for x := lo; x < hi; x++ {
		val := t.Vals[x]
		for c := 0; c < r; c++ {
			scratch[c] = val
		}
		for m, ind := range t.Inds {
			if m == n {
				continue
			}
			row := mats[m][int(ind[x])*r : (int(ind[x])+1)*r]
			for c := 0; c < r; c++ {
				scratch[c] *= row[c]
			}
		}
		orow := out[int(t.Inds[n][x])*r : (int(t.Inds[n][x])+1)*r]
		for c := 0; c < r; c++ {
			orow[c] += scratch[c]
		}
	}
}

// MttkrpPrivatized is Mttkrp over all non-zeros on len(priv) workers by
// textbook privatization: worker w zeroes and fills its private copy
// priv[w] of the output from its share of the non-zeros, then the copies
// are summed into out, rows split across the same workers. scratch[w]
// holds r values.
func MttkrpPrivatized(out []float32, priv, scratch [][]float32, t *COO, n int, mats [][]float32, r int) {
	workers := len(priv)
	Static(t.NNZ(), workers, func(w, lo, hi int) {
		p := priv[w]
		for i := range p {
			p[i] = 0
		}
		Mttkrp(p, t, n, mats, r, scratch[w], lo, hi)
	})
	Static(len(out), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			var s float32
			for _, p := range priv {
				s += p[i]
			}
			out[i] = s
		}
	})
}
