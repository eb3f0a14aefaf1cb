package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TtmHiCOOPlan is the HiCOO tensor-times-matrix kernel (§3.4.1): gHiCOO
// input with the product mode uncompressed, sHiCOO output with an
// R-length dense row per fiber, and the COO value computation.
type TtmHiCOOPlan struct {
	// X is the input in gHiCOO with only Mode uncompressed.
	X *hicoo.GHiCOO
	// Mode is the product mode n.
	Mode int
	// R is the matrix column count.
	R int
	// Fptr holds the fiber start offsets (MF+1 entries).
	Fptr []int64
	// Out is the preallocated sHiCOO output.
	Out *hicoo.SemiHiCOO

	k fiberKernel // the COO value computation over (Fptr, X.UInds[0], X.Vals)
}

// PrepareTtmHiCOO converts the tensor to gHiCOO (compressing every mode
// except mode) and builds the sHiCOO output skeleton.
func PrepareTtmHiCOO(x *tensor.COO, mode, r int, blockBits uint8) (*TtmHiCOOPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Ttm mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: Ttm needs R >= 1, got %d", r)
	}
	g, k, sk := prepareFiberHiCOO(x, mode, r, blockBits)

	outDims := append([]tensor.Index(nil), x.Dims...)
	outDims[mode] = tensor.Index(r)
	out := &hicoo.SemiHiCOO{
		Dims:       outDims,
		DenseModes: []int{mode},
		BlockBits:  g.BlockBits,
		BPtr:       sk.bptr,
		BInds:      sk.binds,
		EInds:      sk.einds,
		Vals:       k.out,
	}
	return &TtmHiCOOPlan{X: g, Mode: mode, R: r, Fptr: k.fptr, Out: out, k: k}, nil
}

// ExecuteSeq runs the value computation sequentially.
func (p *TtmHiCOOPlan) ExecuteSeq(u *tensor.Matrix) (*hicoo.SemiHiCOO, error) {
	return planOut(p.Out, p.k.ttmSeq(u))
}

// ExecuteOMP runs the value computation exactly as the COO Ttm kernel
// does (fiberKernel.ttmOMP).
func (p *TtmHiCOOPlan) ExecuteOMP(u *tensor.Matrix, opt parallel.Options) (*hicoo.SemiHiCOO, error) {
	return planOut(p.Out, p.k.ttmOMP(u, opt))
}

// ExecuteGPU runs HiCOO-Ttm-GPU with the same geometry as the COO kernel:
// one block per fiber, x-threads over columns, y-threads over the fiber's
// non-zeros with atomic accumulation.
func (p *TtmHiCOOPlan) ExecuteGPU(dev *gpusim.Device, u *tensor.Matrix) (*hicoo.SemiHiCOO, error) {
	return planOut(p.Out, p.k.ttmGPU(dev, u))
}

// FlopCount returns the floating-point work of one execution (2MR flops).
func (p *TtmHiCOOPlan) FlopCount() int64 { return 2 * int64(p.X.NNZ()) * int64(p.R) }
