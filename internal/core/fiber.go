package core

import (
	"fmt"

	"repro/internal/cpu"
	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// fiber.go holds the one value computation Ttv and Ttm have. After
// preprocessing, a COO tensor sorted for the product mode and a gHiCOO
// tensor with the product mode left uncompressed (§3.4: "bypasses the
// blocking nature of HiCOO") are the same thing to the kernel: contiguous
// fibers over a product-index column and a value column. Formats differ
// only in how Prepare* builds that view and the output skeleton around
// it; every loop below exists once and serves the COO and HiCOO plans,
// the multi-GPU shards and the dist ranks.

// fiberKernel is the prepared fiber reduction of one Ttv or Ttm plan. It
// is built once in Prepare* and lives inside the plan, so Execute* hands
// the parallel runtime a pointer into an object that already exists
// instead of allocating a view per call.
type fiberKernel struct {
	fptr []int64        // MF+1 fiber start offsets into kInd/vals
	kInd []tensor.Index // product-mode index of each non-zero
	vals []tensor.Value // non-zero values, fiber-contiguous
	out  []tensor.Value // output values: MF×r, one r-row per fiber
	// perm, when set, maps each fiber to its output value: fiber f's sum
	// is out[perm[f]]. Only a grouped layout has one.
	perm []int32
	// grouped is Ttv's length-grouped layout of the same fibers
	// (ttv_layout.go), or nil: whole-tensor Ttv runs over it.
	grouped *fiberKernel
	mode    int // product mode n (operand-check messages)
	kDim    int // size of the product mode
	r       int // output columns: R for Ttm, 1 for Ttv
}

func (k *fiberKernel) numFibers() int { return len(k.fptr) - 1 }

// planOut is the tail of every delegating Execute*: the plan-owned
// output on success, nil with the kernel's error otherwise.
func planOut[T any](out *T, err error) (*T, error) {
	if err != nil {
		return nil, err
	}
	return out, nil
}

// --- Ttv: y_f = Σ_m x_m · v[k_m] -----------------------------------------

func (k *fiberKernel) checkVec(v tensor.Vector) error {
	if len(v) != k.kDim {
		return fmt.Errorf("core: Ttv vector length %d, want mode-%d size %d", len(v), k.mode, k.kDim)
	}
	return nil
}

// ttvFibers reduces fibers [lo, hi), one independent reduction each,
// into out, or into out[perm[f]] on a grouped layout. On amd64 with AVX2
// one assembly body (ttv_amd64.s, DESIGN.md §26) reduces eight fibers per
// step, one per vector lane, in calls of at most cpu.CallNNZ non-zeros
// cut at fiber boundaries (cpu.Cut); ttvLoop reduces the fewer than eight
// fibers a call leaves, the fibers in front of one that holds more than a
// call's budget, that fiber, and everything elsewhere. The body stops
// before the first group with an offset, index or perm entry out of
// bounds and ttvLoop takes over there, so such a fiber panics where the
// Go loop alone panics, after the same writes. Each fiber sees
// 0 + x₀v₀ + x₁v₁ + … in non-zero order on either path, bit for bit.
func (k *fiberKernel) ttvFibers(lo, hi int, v tensor.Vector) {
	body := cpu.AVX2 && k.ttvFits(lo, hi, v)
	for lo < hi {
		end := hi
		if body && hi-lo >= 8 {
			end = cpu.Cut(k.fptr, lo, hi)
			if n := (end - lo) &^ 7; n > 0 {
				stop := ttvGroups(k.out, k.fptr, k.kInd, k.vals, v, k.perm, lo, lo+n)
				body = stop == lo+n
				lo = stop
				continue
			}
		}
		k.ttvLoop(lo, end, v)
		lo = end
	}
}

// ttvFits is the assembly body's precondition, O(1): the fiber offsets
// cover [lo, hi], the output holds fibers [0, hi), the index and value
// columns are one length, short enough for the body's dword offsets, v
// has 1 to 2³¹ entries, so that every index the body accepts is a
// non-negative dword, and a perm covers [0, hi) and indexes an output of
// at most 2³¹ values, so that every entry the body accepts is one too.
func (k *fiberKernel) ttvFits(lo, hi int, v tensor.Vector) bool {
	return 0 <= lo && lo <= hi && hi < len(k.fptr) && hi <= len(k.out) &&
		len(k.kInd) == len(k.vals) && int64(len(k.vals)) < 1<<31 &&
		len(v) >= 1 && int64(len(v)) <= 1<<31 &&
		(k.perm == nil || hi <= len(k.perm) && int64(len(k.out)) <= 1<<31)
}

// ttvLoop is ttvFibers' Go loop over fibers [lo, hi).
func (k *fiberKernel) ttvLoop(lo, hi int, v tensor.Vector) {
	fptr := k.fptr
	kInd := k.kInd
	xv := k.vals
	yv := k.out
	perm := k.perm
	for f := lo; f < hi; f++ {
		var acc tensor.Value
		for m := fptr[f]; m < fptr[f+1]; m++ {
			acc += xv[m] * v[kInd[m]]
		}
		if perm != nil {
			yv[perm[f]] = acc
		} else {
			yv[f] = acc
		}
	}
}

// ttvView is the fibers whole-tensor Ttv runs over: the length-grouped
// layout when Prepare built one, else the plan's own.
func (k *fiberKernel) ttvView() *fiberKernel {
	if k.grouped != nil {
		return k.grouped
	}
	return k
}

// ttvSeq checks v and reduces every fiber.
func (k *fiberKernel) ttvSeq(v tensor.Vector) error {
	g := k.ttvView()
	return g.ttvRange(0, g.numFibers(), v)
}

// ttvRange checks v and reduces fibers [lo, hi) of k: ExecuteSeq over
// every fiber of ttvView, ExecuteFibers over a rank's range of the
// plan's own.
func (k *fiberKernel) ttvRange(lo, hi int, v tensor.Vector) error {
	if err := k.checkVec(v); err != nil {
		return err
	}
	k.ttvFibers(lo, hi, v)
	return nil
}

// ttvOMP runs the paper's "parfor f = 1..MF": owner-computes over
// independent fibers, race-free but exposed to the fiber-length imbalance
// the paper highlights. Each fiber is reduced by one worker in non-zero
// order, so the output is ExecuteSeq's bit for bit at any worker count.
func (k *fiberKernel) ttvOMP(v tensor.Vector, opt parallel.Options) error {
	if err := k.checkVec(v); err != nil {
		return err
	}
	g := k.ttvView()
	return parallel.For(g.numFibers(), opt, func(lo, hi, _ int) {
		g.ttvFibers(lo, hi, v)
	})
}

// ttvGPU launches the Ttv GPU kernel over fibers [lo, hi): a 1-D grid of
// 1-D thread blocks with one thread per fiber (§3.2.2), so unbalanced
// fiber lengths cause the performance drop the paper notes. The whole
// tensor on one device is the range [0, MF); a multi-GPU shard is a
// sub-range of it, expressed by re-slicing the fiber offsets and the
// output so the thread body is the same either way.
func (k *fiberKernel) ttvGPU(dev *gpusim.Device, lo, hi int, v tensor.Vector) error {
	if err := k.checkVec(v); err != nil {
		return err
	}
	mf := hi - lo
	if mf == 0 {
		return nil
	}
	block := gpusim.Dim1(gpusim.DefaultBlockThreads)
	grid := gpusim.Grid1DFor(mf, block.X)
	fptr := k.fptr[lo : hi+1]
	kInd := k.kInd
	xv := k.vals
	yv := k.out[lo:hi]
	_, err := dev.TryLaunch(grid, block, func(ctx gpusim.Ctx) {
		f := ctx.GlobalX()
		if f >= mf {
			return
		}
		var acc tensor.Value
		for m := fptr[f]; m < fptr[f+1]; m++ {
			acc += xv[m] * v[kInd[m]]
		}
		yv[f] = acc
	})
	return err
}

// --- Ttm: Y(f, :) = Σ_m x_m · U(k_m, :) ----------------------------------

func (k *fiberKernel) checkMat(u *tensor.Matrix) error {
	if u.Rows != k.kDim || u.Cols != k.r {
		return fmt.Errorf("core: Ttm matrix is %dx%d, want %dx%d", u.Rows, u.Cols, k.kDim, k.r)
	}
	return nil
}

// ttmFibers writes the R-length output rows of fibers [lo, hi); the
// column loop plays the role of the paper's "omp simd". On amd64 with
// AVX2 one assembly body (ttm_amd64.s, DESIGN.md §25) computes columns
// [0, r&^7), in calls of at most cpu.CallNNZ non-zeros cut at fiber
// boundaries (cpu.Cut), and ttmCols the columns left; elsewhere ttmCols
// computes everything. The body stops before the first fiber with a row,
// range or index out of bounds and ttmCols resumes there, so such a
// fiber panics where the Go loop alone panics, after the same writes.
// Each output element sees 0 + v₀u₀ + v₁u₁ + … in non-zero order on
// either path, bit for bit. An output of at least ttmStreamValues values
// is written with streaming stores.
func (k *fiberKernel) ttmFibers(lo, hi int, u *tensor.Matrix) {
	r := k.r
	if c := r &^ 7; c > 0 && cpu.AVX2 && k.ttmFits(lo, hi) {
		stream := len(k.out) >= ttmStreamValues
		for lo < hi {
			end := cpu.Cut(k.fptr, lo, hi)
			stop := ttmRows(k.out, k.fptr, k.kInd, k.vals, u.Data, r, lo, end, stream)
			if c < r {
				k.ttmCols(lo, stop, u, c)
			}
			lo = stop
			if stop < end {
				break
			}
		}
	}
	k.ttmCols(lo, hi, u, 0)
}

// ttmStreamValues is the output size, in values (1 MiB), from which the
// Ttm body writes rows with streaming stores. A call writes each row once
// and reads none, and an output this large does not stay in a core's L2
// (1–2 MiB on current x86 server cores) next to the non-zeros and U until
// the next call. With ordinary stores every row first fetches its line
// from L3 or DRAM, wherever other work left it: a call whose output lines
// sat in DRAM took twice as long as one whose lines sat in L3. Streaming
// stores skip that fetch, so the output costs a call the same whatever
// the caches hold (DESIGN.md §25). Smaller outputs keep ordinary stores,
// so that whoever reads them next finds them in cache.
const ttmStreamValues = 1 << 18

// ttmFits is the assembly body's precondition, O(1): the fiber offsets
// cover [lo, hi], the index and value columns are one length and
// r ≤ 2^16, so that with a []float32 shorter than 2^46 values no row
// offset the body computes wraps.
func (k *fiberKernel) ttmFits(lo, hi int) bool {
	return 0 <= lo && lo <= hi && hi < len(k.fptr) && len(k.kInd) == len(k.vals) && k.r <= 1<<16
}

// ttmCols is ttmFibers' Go loop over columns [c0, r) of fibers [lo, hi).
func (k *fiberKernel) ttmCols(lo, hi int, u *tensor.Matrix, c0 int) {
	fptr := k.fptr
	kInd := k.kInd
	xv := k.vals
	r := k.r
	ud := u.Data
	for f := lo; f < hi; f++ {
		row := k.out[f*r+c0 : (f+1)*r]
		for c := range row {
			row[c] = 0
		}
		// The fiber end is loaded once, not per non-zero: with it in the
		// loop condition the compiler runs out of registers and spills
		// the column counter of the innermost loop (EXPERIMENTS.md,
		// "Kernel bodies").
		end := fptr[f+1]
		for m := fptr[f]; m < end; m++ {
			v := xv[m]
			kr := int(kInd[m]) * r
			urow := ud[kr+c0 : kr+r]
			for c, uv := range urow {
				row[c] += v * uv
			}
		}
	}
}

func (k *fiberKernel) ttmSeq(u *tensor.Matrix) error {
	if err := k.checkMat(u); err != nil {
		return err
	}
	k.ttmFibers(0, k.numFibers(), u)
	return nil
}

// ttmOMP is ttvOMP for R-wide rows: owner-computes over fibers.
func (k *fiberKernel) ttmOMP(u *tensor.Matrix, opt parallel.Options) error {
	if err := k.checkMat(u); err != nil {
		return err
	}
	return parallel.For(k.numFibers(), opt, func(lo, hi, _ int) {
		k.ttmFibers(lo, hi, u)
	})
}

// ttmGPU launches the Ttm GPU kernel following ParTI: one 2-D thread
// block per fiber, the x-dimension covering the R matrix columns (memory
// coalescing) and the y-dimension striding the fiber's non-zeros; the
// per-column partial products are accumulated with atomicAdd (§3.2.2).
func (k *fiberKernel) ttmGPU(dev *gpusim.Device, u *tensor.Matrix) error {
	if err := k.checkMat(u); err != nil {
		return err
	}
	mf := k.numFibers()
	if mf == 0 {
		return nil
	}
	r := k.r
	block := gpusim.Dim2(r, max(gpusim.DefaultBlockThreads/r, 1))
	grid := gpusim.Dim1(mf)
	fptr := k.fptr
	kInd := k.kInd
	xv := k.vals
	out := k.out
	ud := u.Data
	for i := range out {
		out[i] = 0
	}
	_, err := dev.TryLaunch(grid, block, func(ctx gpusim.Ctx) {
		f := ctx.BlockIdx.X
		col := ctx.ThreadIdx.X
		var acc tensor.Value
		for m := fptr[f] + int64(ctx.ThreadIdx.Y); m < fptr[f+1]; m += int64(ctx.BlockDim.Y) {
			acc += xv[m] * ud[int(kInd[m])*r+col]
		}
		if acc != 0 {
			gpusim.AtomicAdd(&out[f*r+col], acc)
		}
	})
	return err
}
