package tensor

import (
	"math"
	"sort"
)

// FiberStats summarizes the mode-n fiber structure of a tensor. The
// benchmark's Ttv/Ttm kernels parallelize over fibers, so fiber-length
// skew drives their load imbalance; Mttkrp atomic contention scales with
// the collision density of the output mode.
type FiberStats struct {
	Mode      int     // the mode the fibers run along
	NumFibers int     // MF in the paper's notation
	MinLen    int     // shortest fiber
	MaxLen    int     // longest fiber
	MeanLen   float64 // M / MF
	CV        float64 // coefficient of variation of fiber lengths
	Imbalance float64 // MaxLen / MeanLen; 1.0 is perfectly balanced
}

// ComputeFiberStats orders (a copy of) the tensor for mode n and measures
// its fiber-length distribution. The input tensor is not modified.
func ComputeFiberStats(t *COO, n int) FiberStats {
	fptr := t.SortedBy(ModeOrder(t.Order(), n)).FiberPointers(n)
	return fiberStatsFromPtr(fptr, n)
}

func fiberStatsFromPtr(fptr []int64, mode int) FiberStats {
	nf := len(fptr) - 1
	st := FiberStats{Mode: mode, NumFibers: nf}
	if nf <= 0 {
		return st
	}
	total := fptr[nf] - fptr[0]
	st.MeanLen = float64(total) / float64(nf)
	st.MinLen = int(fptr[1] - fptr[0])
	var sumSq float64
	for f := 0; f < nf; f++ {
		l := int(fptr[f+1] - fptr[f])
		if l < st.MinLen {
			st.MinLen = l
		}
		if l > st.MaxLen {
			st.MaxLen = l
		}
		d := float64(l) - st.MeanLen
		sumSq += d * d
	}
	if st.MeanLen > 0 {
		st.CV = math.Sqrt(sumSq/float64(nf)) / st.MeanLen
		st.Imbalance = float64(st.MaxLen) / st.MeanLen
	}
	return st
}

// ModeCollisions returns M / D_n where D_n is the number of distinct
// indices appearing in mode n: the average number of non-zeros that write
// the same output row in a mode-n Mttkrp. Values near 1 mean nearly
// collision-free atomics; large values mean heavy contention.
func ModeCollisions(t *COO, n int) float64 {
	if t.NNZ() == 0 {
		return 0
	}
	distinct := DistinctModeIndices(t, n)
	return float64(t.NNZ()) / float64(distinct)
}

// DistinctModeIndices counts the distinct coordinates used in mode n.
func DistinctModeIndices(t *COO, n int) int {
	ind := t.Inds[n]
	if len(ind) == 0 {
		return 0
	}
	sorted := append([]Index(nil), ind...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	d := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] != sorted[i-1] {
			d++
		}
	}
	return d
}

// AbsDiff returns the largest absolute difference between two tensors
// over the union of their coordinates, whatever their entry order.
// Intended for tests.
func AbsDiff(a, b *COO) float64 {
	return MaxDeviation(a, b, func(x, y float64) float64 { return math.Abs(x - y) })
}

// MaxDeviation returns the largest dev(x, y) over the union of the
// coordinates of a and b, where x and y are each side's values at a
// coordinate summed in float64 in stored order (0 where a side has none):
// an output that splits a value over duplicate entries equals one that
// holds it once. Tensors of different orders share no coordinate, and a
// NaN or an infinity on either side gives +Inf. It is one merge walk over
// both tensors in natural order (SortedBy: no copy for a tensor already
// in it); the inputs are not modified.
func MaxDeviation(a, b *COO, dev func(x, y float64) float64) float64 {
	if a.Order() != b.Order() && a.NNZ() > 0 && b.NNZ() > 0 {
		return max(MaxDeviation(a, &COO{}, dev), MaxDeviation(&COO{}, b, dev))
	}
	a, b = a.SortedBy(OtherModes(a.Order(), -1)), b.SortedBy(OtherModes(b.Order(), -1))
	var worst float64
	for i, j := 0, 0; i < a.NNZ() || j < b.NNZ(); {
		c := compareCoords(a, i, b, j) // the side holding the next coordinate
		var x, y float64
		if c <= 0 {
			x, i = a.runSum(i)
		}
		if c >= 0 {
			y, j = b.runSum(j)
		}
		if math.IsNaN((x - x) + (y - y)) { // x or y is NaN or infinite
			return math.Inf(1)
		}
		worst = max(worst, dev(x, y))
	}
	return worst
}

// compareCoords orders non-zero i of a against non-zero j of b
// lexicographically: -1 (a's comes first), 0 or 1. A side past its last
// non-zero comes last.
func compareCoords(a *COO, i int, b *COO, j int) int {
	switch {
	case i == a.NNZ():
		return 1
	case j == b.NNZ():
		return -1
	}
	for n, ind := range a.Inds {
		x, y := ind[i], b.Inds[n][j]
		if x < y {
			return -1
		}
		if x > y {
			return 1
		}
	}
	return 0
}

// runSum sums the values of the run of non-zeros at non-zero i's
// coordinate in float64, in stored order, and returns the index past it.
func (t *COO) runSum(i int) (float64, int) {
	end := i + 1
	for end < t.NNZ() && t.sameCoord(i, end) {
		end++
	}
	var s float64
	for _, v := range t.Vals[i:end] {
		s += float64(v)
	}
	return s, end
}
