package kernelreg

import (
	"runtime"
	"unsafe"

	"repro/internal/roofline"
	"repro/internal/tensor"
)

// valueBytes is the in-memory size of one tensor.Value, derived from
// the type so the accounting tracks a precision change.
const valueBytes = int64(unsafe.Sizeof(tensor.Value(0)))

// indexBytes is the in-memory size of one tensor.Index.
const indexBytes = int64(unsafe.Sizeof(tensor.Index(0)))

// MemBytes reports the workbench's measured resident footprint: the
// input tensor plus every lazily built operand and format conversion.
// It walks only what has actually been materialized, so the number
// grows as variants touch the workbench — the measured complement to
// EstimateFootprint's pre-admission prediction.
func (wb *Workbench) MemBytes() int64 {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	b := wb.X.StorageBytes()
	if wb.y != nil {
		b += wb.y.StorageBytes()
	}
	for _, s := range wb.views {
		// A view of already-ordered data shares X's arrays.
		if s.NNZ() > 0 && &s.Vals[0] != &wb.X.Vals[0] {
			b += s.StorageBytes()
		}
	}
	if wb.hx != nil {
		b += wb.hx.StorageBytes()
	}
	if wb.hy != nil {
		b += wb.hy.StorageBytes()
	}
	for _, v := range wb.vecs {
		b += valueBytes * int64(len(v))
	}
	for _, m := range wb.ttm {
		b += valueBytes * int64(len(m.Data))
	}
	for _, m := range wb.mats {
		b += valueBytes * int64(len(m.Data))
	}
	for _, c := range wb.csfs {
		b += c.StorageBytes()
	}
	for _, h := range wb.hiers {
		// A hierarchy over a cached CSF tree shares the tree's arrays (a
		// wrap all of them, a root split all below the root); only the
		// arrays it does not share are charged.
		b += h.StorageBytes()
		if c := wb.csfs[moKey(h.ModeOrder)]; c != nil {
			b -= shared(h.Ptr, c.FPtr, 8) + shared(h.Crd, c.FIds, indexBytes) +
				shared([][]tensor.Value{h.Vals}, [][]tensor.Value{c.Vals}, valueBytes)
		}
	}
	return b
}

// shared sums size bytes per element over the arrays of hs that are
// also arrays of cs. The same first element is the same array: the rule
// the views above apply to X's arrays.
func shared[E any](hs, cs [][]E, size int64) int64 {
	var b int64
	for _, h := range hs {
		for _, c := range cs {
			if len(h) > 0 && len(c) > 0 && &h[0] == &c[0] {
				b += size * int64(len(h))
				break
			}
		}
	}
	return b
}

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
	// charged too) plus the output buffer the instance owns.
	Instance int64
	// Run is the per-execution transient component: the unique bytes a
	// trial touches — the Table 1 roofline traffic clamped to the
	// resident set (traffic counts re-reads; the working set does not)
	// — plus per-worker reduction scratch.
	Run int64
}

// Total is the full admission charge for a cold request.
func (f Footprint) Total() int64 { return f.Workbench + f.Instance + f.Run }

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
	coo := (order + 1) * indexBytes * nnz // index arrays + values

	fp := Footprint{Workbench: coo}
	switch k {
	case roofline.Tew:
		fp.Workbench += coo // the second operand Y shares X's pattern
	case roofline.Ttv:
		fp.Workbench += valueBytes * maxDim
	case roofline.Ttm:
		fp.Workbench += valueBytes * maxDim * r
	case roofline.Mttkrp:
		fp.Workbench += valueBytes * sumDims * r // one factor matrix per mode
	}

	// Prepare converts from a sorted copy of the COO (the workbench's
	// cached view, shared by the variants of one mode order); the copy
	// and the converted structure coexist, so both are charged.
	conv := coo
	switch f {
	case roofline.HiCOO:
		// Block pointers + block indices + 8-bit element indices + values.
		nb := nnz/blockSize + 1
		conv += (8+4*order)*nb + (valueBytes+order)*nnz
	case roofline.CSF:
		conv += 8*nnz + 4*order*nnz // fiber pointers + per-level ids (nnz upper bound)
	case roofline.BCSF:
		// CSF storage plus the root split: one coarse blocked level
		// (crd + ptr, ≤ root-node count ≤ nnz) and the refined root crds.
		conv += 8*nnz + 4*order*nnz + (8+4+4)*nnz
	case roofline.FCOO:
		conv += 2*4*nnz + nnz/8 + 4*nnz // inds + vals + flag bitmaps
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
	// Per-worker privatized reduction scratch (cache-line padded rows).
	run += int64(runtime.GOMAXPROCS(0)) * 64 * valueBytes
	fp.Run = run
	return fp
}

// outputBytes estimates the output object one prepared instance owns.
func outputBytes(k roofline.Kernel, order, nnz, maxDim, r int64) int64 {
	switch k {
	case roofline.Tew, roofline.Ts:
		return (order + 1) * indexBytes * nnz // same-pattern COO output
	case roofline.Ttv:
		// One value per fiber plus N-1 index arrays; fibers ≤ nnz.
		return order * indexBytes * nnz
	case roofline.Ttm:
		// Semi-sparse output: R values per fiber (fibers ≤ nnz).
		return valueBytes*nnz*r + (order-1)*indexBytes*nnz
	case roofline.Mttkrp:
		return valueBytes * maxDim * r
	}
	return valueBytes * nnz
}
