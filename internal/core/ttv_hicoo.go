package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TtvHiCOOPlan is the HiCOO tensor-times-vector kernel (§3.4.1). The
// input is represented in gHiCOO with the product mode left uncompressed,
// which "bypasses the blocking nature of HiCOO": fibers are contiguous
// and block-race-free, so the value computation is exactly the COO one.
// Preprocessing builds the order-(N-1) output directly in HiCOO format —
// one output non-zero per fiber, inheriting the fiber's block and element
// indices on the compressed modes.
type TtvHiCOOPlan struct {
	// X is the input in gHiCOO with only Mode uncompressed.
	X *hicoo.GHiCOO
	// Mode is the product mode n.
	Mode int
	// Fptr holds the fiber start offsets (MF+1 entries).
	Fptr []int64
	// Out is the preallocated order-(N-1) HiCOO output.
	Out *hicoo.HiCOO

	k fiberKernel // the COO value computation over (Fptr, X.UInds[0], X.Vals)
}

// PrepareTtvHiCOO converts the tensor to gHiCOO (compressing every mode
// except mode) and builds the HiCOO output skeleton.
func PrepareTtvHiCOO(x *tensor.COO, mode int, blockBits uint8) (*TtvHiCOOPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Ttv mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if x.Order() < 2 {
		return nil, fmt.Errorf("core: Ttv needs an order >= 2 tensor")
	}
	g, view, fb := prepareFiberHiCOO(x, mode, blockBits)
	k := view.kernel(1)
	k.grouped = k.groupByLength()

	// Output dims: drop the product mode. The compressed modes of X map
	// one-to-one onto the output's modes, in order.
	outDims := make([]tensor.Index, len(g.CompModes))
	for ci, n := range g.CompModes {
		outDims[ci] = x.Dims[n]
	}
	out := &hicoo.HiCOO{
		Dims:      outDims,
		BlockBits: blockBits,
		BPtr:      fb.BPtr,
		BInds:     fb.BInds,
		EInds:     fb.EInds,
		Vals:      k.out,
	}
	return &TtvHiCOOPlan{X: g, Mode: mode, Fptr: k.fptr, Out: out, k: k}, nil
}

// NumFibers returns MF.
func (p *TtvHiCOOPlan) NumFibers() int { return len(p.Fptr) - 1 }

// ExecuteSeq runs the value computation sequentially.
func (p *TtvHiCOOPlan) ExecuteSeq(v tensor.Vector) (*hicoo.HiCOO, error) {
	return planOut(p.Out, p.k.ttvSeq(v))
}

// ExecuteOMP runs the value computation exactly as the COO kernel does
// (fiberKernel.ttvOMP).
func (p *TtvHiCOOPlan) ExecuteOMP(v tensor.Vector, opt parallel.Options) (*hicoo.HiCOO, error) {
	return planOut(p.Out, p.k.ttvOMP(v, opt))
}

// ExecuteGPU runs HiCOO-Ttv-GPU (same execution as COO per §3.4.2): one
// thread per fiber.
func (p *TtvHiCOOPlan) ExecuteGPU(dev *gpusim.Device, v tensor.Vector) (*hicoo.HiCOO, error) {
	return planOut(p.Out, p.k.ttvGPU(dev, 0, p.NumFibers(), v))
}

// FlopCount returns the floating-point work of one execution (2M flops).
func (p *TtvHiCOOPlan) FlopCount() int64 { return 2 * int64(p.X.NNZ()) }

// prepareFiberHiCOO is the preprocessing HiCOO-Ttv and HiCOO-Ttm share:
// convert to gHiCOO compressing every mode except the product mode; the
// conversion's assembly sweep also finds the fibers and the output's
// block skeleton they induce. The returned view is over the gHiCOO
// arrays.
func prepareFiberHiCOO(x *tensor.COO, mode int, blockBits uint8) (*hicoo.GHiCOO, FiberView, *hicoo.Fibers) {
	g, fb := hicoo.FromCOOFibers(x, mode, blockBits)
	return g, FiberView{Fptr: fb.Ptr, KInd: g.UInds[0], Vals: g.Vals, Dims: x.Dims, Mode: mode}, fb
}
