package core

import (
	"unsafe"

	"repro/internal/tensor"
)

// ttv_layout.go builds Ttv's length-grouped fiber layout (DESIGN.md §26,
// "Fibers grouped by length"). The AVX2 body reduces eight fibers per
// step, one per vector lane, and each step runs to the longest fiber of
// its eight: on power-law modes most lanes idle. Within each window of
// ttvWindow fibers the layout orders the fibers by descending length (a
// stable counting sort, the σ-sort of SELL-C-σ applied to fibers), so
// the eight fibers of a step have nearly one length. The plan's own
// fibers, Fptr, Out and output order stay as they are: the layout is a
// copy of the fibers' indices and values in that order, and perm sends
// each of its fibers' sums to the plan fiber it came from.

// ttvWindow is the number of consecutive fibers the layout sorts at a
// time. A window's sums land in ttvWindow consecutive output values
// (4 KiB), so the scattered stores stay within a few cache lines' reach,
// and the counting sort's histogram fits the stack.
const ttvWindow = 1 << 10

// The layout is built when the stored order's lane-steps exceed the
// grouped order's by more than ttvGainNum/ttvGainDen. Lane-steps are 8 ×
// the longest fiber of each group of eight. The ratio reads 1.38–3.41 on
// irrS's modes, ≤ 1.09 on nell2's and ≤ 1.01 on regS4d's in
// BenchmarkTtvBody's rows, and 1.31–3.99, ≤ 1.18 and ≤ 1.01 at the
// benchmark workloads' main sizes (TestTtvLayoutGate).
const (
	ttvGainNum = 5
	ttvGainDen = 4
)

// ttvKey is the counting sort's key of a fiber of n non-zeros: its
// length, with every length of ttvWindow−1 or more in the top key, whose
// fibers keep their stored order.
func ttvKey(n int64) int {
	return int(min(n, ttvWindow-1))
}

// ttvLaneSteps returns the lane-steps of fibers fptr in their stored
// order and in the grouped order, in O(MF) and with nothing allocated;
// both 0 if a fiber's end lies before its start.
func ttvLaneSteps(fptr []int64) (stored, grouped int64) {
	mf := len(fptr) - 1
	var hist [ttvWindow]int32 // zero between windows
	for w0 := 0; w0 < mf; w0 += ttvWindow {
		w1 := min(w0+ttvWindow, mf)
		top := 0 // the fibers in the top key, in the order they sit in
		maxKey := 0
		var groupMax, topMax int64
		for f := w0; f < w1; f++ {
			n := fptr[f+1] - fptr[f]
			if n < 0 {
				return 0, 0
			}
			if (f-w0)%8 == 0 {
				stored += 8 * groupMax
				groupMax = 0
			}
			groupMax = max(groupMax, n)
			key := ttvKey(n)
			hist[key]++
			maxKey = max(maxKey, key)
			if key == ttvWindow-1 {
				topMax = max(topMax, n)
				if top++; top%8 == 0 {
					grouped += 8 * topMax
					topMax = 0
				}
			}
		}
		stored += 8 * groupMax
		// The grouped order puts the top key first and then the lengths
		// downwards, so a group's longest fiber is its first, and a group
		// the top key's last fibers began is already counted.
		grouped += 8 * topMax
		pos := int64(top)
		for key := min(maxKey, ttvWindow-2); key >= 0; key-- {
			c := int64(hist[key])
			grouped += 8 * int64(key) * ((pos+c+7)/8 - (pos+7)/8)
			pos += c
		}
		clear(hist[:maxKey+1])
	}
	return stored, grouped
}

// groupByLength returns k's fibers in the length-grouped layout, or nil
// when the stored order's lane-steps are within the gain of the grouped
// order's, the fibers are too many for the body's dword perm, or the
// offsets do not lie in the columns in order (the Go loop then panics at
// Execute, as it does without a layout). The build is O(MF + M) and
// makes three allocations: perm, the layout's fptr, and one block that
// holds the copied indices and then the values.
func (k *fiberKernel) groupByLength() *fiberKernel {
	mf := k.numFibers()
	if mf < 1 || int64(mf) > 1<<31 || k.fptr[0] < 0 || k.fptr[mf] > int64(len(k.vals)) || len(k.kInd) != len(k.vals) {
		return nil
	}
	if stored, grouped := ttvLaneSteps(k.fptr); ttvGainDen*stored <= ttvGainNum*grouped {
		return nil
	}
	fptr := k.fptr
	perm := make([]int32, mf)
	var at [ttvWindow]int32 // zero between windows
	for w0 := 0; w0 < mf; w0 += ttvWindow {
		w1 := min(w0+ttvWindow, mf)
		maxKey := 0
		for f := w0; f < w1; f++ {
			key := ttvKey(fptr[f+1] - fptr[f])
			at[key]++
			maxKey = max(maxKey, key)
		}
		pos := int32(w0)
		for key := maxKey; key >= 0; key-- {
			at[key], pos = pos, pos+at[key]
		}
		for f := w0; f < w1; f++ {
			key := ttvKey(fptr[f+1] - fptr[f])
			perm[at[key]] = int32(f)
			at[key]++
		}
		clear(at[:maxKey+1])
	}

	m := len(k.vals)
	g := &fiberKernel{fptr: make([]int64, mf+1), out: k.out, perm: perm, mode: k.mode, kDim: k.kDim, r: k.r}
	cols := make([]tensor.Index, 2*m)
	g.kInd = cols[:m:m]
	if m > 0 {
		// tensor.Value and tensor.Index are both four bytes without
		// pointers, so the values may share the indices' block.
		g.vals = unsafe.Slice((*tensor.Value)(unsafe.Pointer(&cols[m])), m)
	}
	kInd, vals, gInd, gVals, gptr := k.kInd, k.vals, g.kInd, g.vals, g.fptr
	var to int64
	for i, f := range perm {
		for x := fptr[f]; x < fptr[f+1]; x++ {
			gInd[to] = kInd[x]
			gVals[to] = vals[x]
			to++
		}
		gptr[i+1] = to
	}
	return g
}
