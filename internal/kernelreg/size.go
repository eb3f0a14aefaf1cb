package kernelreg

import (
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Footprint is the predicted working-set cost of one (kernel, format)
// execution, split by lifetime so an admission controller can skip
// components that are already cache-resident.
type Footprint struct {
	// Workbench is the dataset-lifetime component: the materialized COO
	// tensor plus the kernel's operands (second Tew tensor, factor
	// matrices, dense Ttm matrix, Ttv vector).
	Workbench int64
	// Instance is the prepared-instance component: the format
	// conversion (it reads a sorted copy of the COO, so that copy is
	// charged too), the output buffer the instance owns, for COO and
	// HiCOO Mttkrp the mode-sorted copy its parallel path keeps, for COO
	// and HiCOO Ttv and Ttm the plan's fiber pointers (and for HiCOO each
	// fiber's block), and for Ttv the length-grouped layout its Prepare
	// may build.
	Instance int64
	// Run is the per-execution transient component: the unique bytes a
	// trial touches — the Table 1 roofline traffic clamped to the
	// resident set (traffic counts re-reads; the working set does not).
	Run int64
}

// EstimateFootprint predicts the working-set bytes of one execution
// before anything is materialized, from the dataset shape alone. The
// estimate leans conservative (fiber and block counts are proxied by
// their nnz upper bounds) — for admission control an overcharge sheds a
// borderline request, an undercharge OOMs the daemon.
func EstimateFootprint(k roofline.Kernel, f roofline.Format, dims []int64, nnz int64, cfg Config) Footprint {
	if cfg.R < 1 {
		cfg.R = DefaultConfig().R
	}
	if cfg.BlockBits < 1 {
		cfg.BlockBits = DefaultConfig().BlockBits
	}
	order := int64(len(dims))
	if order < 1 {
		order = 1
	}
	r := int64(cfg.R)
	blockSize := int64(1) << cfg.BlockBits
	var sumDims, maxDim int64
	for _, d := range dims {
		sumDims += d
		if d > maxDim {
			maxDim = d
		}
	}
	coo := (order + 1) * tensor.IndexBytes * nnz // index arrays + values

	fp := Footprint{Workbench: coo}
	switch k {
	case roofline.Tew:
		fp.Workbench += coo // the second operand Y shares X's pattern
	case roofline.Ttv:
		fp.Workbench += tensor.ValueBytes * maxDim
	case roofline.Ttm:
		fp.Workbench += tensor.ValueBytes * maxDim * r
	case roofline.Mttkrp:
		fp.Workbench += tensor.ValueBytes * sumDims * r // one factor matrix per mode
	}

	// Prepare converts from a sorted copy of the COO (the workbench's
	// cached view, shared by the variants of one mode order); the copy
	// and the converted structure coexist, so both are charged. Pointers
	// to fibers (≤ nnz+1 of 8 B, allocated once at their exact count) are
	// charged ptrBytes per non-zero: the quarter more covers a tree's
	// levels above its fibers when they hold fewer than a quarter as many
	// nodes (a CSF Ttm over one non-zero per fiber leaves 108 B per
	// non-zero live of the 110 charged, TestEstimateChargesTtvLayout).
	const ptrBytes = 10
	conv := coo
	switch f {
	case roofline.COO:
		if k == roofline.Mttkrp {
			conv += coo // the owners' copy, sorted by the output mode
		}
	case roofline.HiCOO:
		// Block pointers + block indices + 8-bit element indices + values.
		nb := nnz/blockSize + 1
		hx := (8+tensor.IndexBytes*order)*nb + (tensor.ValueBytes+order)*nnz
		if k == roofline.Mttkrp {
			hx *= 2 // the owners' copy, blocks sorted by the output mode
		}
		conv += hx
	case roofline.CSF:
		conv += ptrBytes*nnz + tensor.IndexBytes*order*nnz // fiber pointers + per-level ids (nnz upper bound)
	case roofline.BCSF:
		// CSF storage plus the root split: one coarse blocked level
		// (crd + ptr, ≤ root-node count ≤ nnz) and the refined root crds.
		conv += ptrBytes*nnz + tensor.IndexBytes*order*nnz + (8+2*tensor.IndexBytes)*nnz
	case roofline.FCOO:
		conv += 2*tensor.IndexBytes*nnz + nnz/8 + tensor.ValueBytes*nnz // inds + vals + flag bitmaps
	}
	if k == roofline.Ttv && f != roofline.FCOO { // F-COO runs no fiber plan
		conv += 20 * nnz // the length-grouped fibers: 8 B per non-zero + 12 B per fiber
	}
	if k == roofline.Ttv || k == roofline.Ttm {
		// A fiber plan's own fiber pointers (a tree plan reads its leaf
		// level's); HiCOO's also keeps each fiber's gHiCOO block, an
		// int32 per fiber. The HiCOO output's skeleton (1 B element
		// indices per fiber and compressed mode, block pointers and
		// indices) is the output term's, which charges 4 B per index.
		switch f {
		case roofline.COO:
			conv += ptrBytes * nnz
		case roofline.HiCOO:
			conv += (ptrBytes + 4) * nnz
		}
	}
	out := outputBytes(k, order, nnz, maxDim, r)
	fp.Instance = conv + out

	// The roofline byte models count every read, including re-reads of
	// resident data; the unique bytes a trial touches are bounded by
	// what is resident. The clamp keeps high-reuse kernels (Mttkrp's
	// 4NMR factor traffic) from being charged terabytes they never
	// allocate.
	p := roofline.Params{Order: int(order), M: nnz, MF: nnz, Nb: nnz/blockSize + 1, R: r, BlockSize: blockSize}
	run := roofline.Bytes(k, f, p)
	if resident := fp.Workbench + fp.Instance; run > resident {
		run = resident
	}
	fp.Run = run
	return fp
}

// outputBytes estimates the output object one prepared instance owns.
func outputBytes(k roofline.Kernel, order, nnz, maxDim, r int64) int64 {
	switch k {
	case roofline.Tew, roofline.Ts:
		return (order + 1) * tensor.IndexBytes * nnz // same-pattern COO output
	case roofline.Ttv:
		// One value per fiber plus N-1 index arrays; fibers ≤ nnz.
		return order * tensor.IndexBytes * nnz
	case roofline.Ttm:
		// Semi-sparse output: R values per fiber (fibers ≤ nnz).
		return tensor.ValueBytes*nnz*r + (order-1)*tensor.IndexBytes*nnz
	case roofline.Mttkrp:
		return tensor.ValueBytes * maxDim * r
	}
	return tensor.ValueBytes * nnz
}
