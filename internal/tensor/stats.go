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

// AbsDiff returns the largest absolute element-wise difference between two
// tensors viewed as coordinate→value maps (so ordering differences do not
// matter). Missing coordinates compare against zero. Intended for tests.
func AbsDiff(a, b *COO) float64 {
	am, bm := a.ToMap(), b.ToMap()
	var worst float64
	for k, av := range am {
		d := math.Abs(float64(av) - float64(bm[k]))
		if d > worst {
			worst = d
		}
	}
	for k, bv := range bm {
		if _, ok := am[k]; !ok {
			d := math.Abs(float64(bv))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
