package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TtmPlan is the prepared state of a COO tensor-times-matrix kernel in a
// fixed mode (§2.4, §3.2). By the sparse-dense property the product mode
// becomes dense in the output, so preprocessing allocates a semi-sparse
// (sCOO) output with one R-length dense row per mode-n fiber.
type TtmPlan struct {
	// X is the input, sorted for Mode.
	X *tensor.COO
	// Mode is the product mode n.
	Mode int
	// R is the matrix column count (typically 16; R < 100 in low-rank
	// methods).
	R int
	// Fptr holds the fiber start offsets (MF+1 entries).
	Fptr []int64
	// Out is the preallocated sCOO output with Mode dense of size R.
	Out *tensor.SemiCOO
	// LastStrategy records the reduction strategy the most recent
	// ExecuteOMP call resolved to (for harness reporting).
	LastStrategy parallel.Strategy

	k fiberKernel // the value computation over (Fptr, X.Inds[Mode], X.Vals)
}

// PrepareTtm performs the preprocessing stage of Ttm in mode n with R
// output columns.
func PrepareTtm(x *tensor.COO, mode, r int) (*TtmPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Ttm mode %d out of range for order-%d tensor", mode, x.Order())
	}
	if r <= 0 {
		return nil, fmt.Errorf("core: Ttm needs R >= 1, got %d", r)
	}
	xs := x
	if !xs.IsSortedBy(tensor.ModeOrder(x.Order(), mode)) {
		xs = x.Clone()
		xs.SortForMode(mode)
	}
	fptr := xs.FiberPointers(mode)
	mf := len(fptr) - 1

	outDims := append([]tensor.Index(nil), x.Dims...)
	outDims[mode] = tensor.Index(r)
	out := tensor.NewSemiCOO(outDims, []int{mode}, mf)
	sparseModes := tensor.OtherModes(x.Order(), mode)
	sparseIdx := make([]tensor.Index, len(sparseModes))
	for f := 0; f < mf; f++ {
		for si, n := range sparseModes {
			sparseIdx[si] = xs.Inds[n][fptr[f]]
		}
		out.AppendFiber(sparseIdx)
	}
	return &TtmPlan{X: xs, Mode: mode, R: r, Fptr: fptr, Out: out, k: fiberKernel{
		fptr: fptr, kInd: xs.Inds[mode], vals: xs.Vals, out: out.Vals,
		mode: mode, kDim: int(x.Dims[mode]), r: r,
	}}, nil
}

// NumFibers returns MF.
func (p *TtmPlan) NumFibers() int { return len(p.Fptr) - 1 }

// ExecuteSeq runs the value computation sequentially:
// Y(f, r) = Σ_m x_m · U(k_m, r) per fiber f.
func (p *TtmPlan) ExecuteSeq(u *tensor.Matrix) (*tensor.SemiCOO, error) {
	return planOut(p.Out, p.k.ttmSeq(u))
}

// ExecuteOMP runs the value computation with the strategy-selected
// decomposition (fiberKernel.ttmOMP): owner-computes over independent
// fibers, or balanced over non-zeros with the per-fiber R-row reduction
// protected by atomics or pooled per-worker private outputs.
func (p *TtmPlan) ExecuteOMP(u *tensor.Matrix, opt parallel.Options) (*tensor.SemiCOO, error) {
	return planOut(p.Out, p.k.ttmOMP(u, opt, &p.LastStrategy))
}

// ExecuteGPU runs the COO-Ttm-GPU kernel following ParTI: one 2-D thread
// block per fiber with atomicAdd accumulation (§3.2.2).
func (p *TtmPlan) ExecuteGPU(dev *gpusim.Device, u *tensor.Matrix) (*tensor.SemiCOO, error) {
	return planOut(p.Out, p.k.ttmGPU(dev, u))
}

// FlopCount returns the floating-point work of one execution (Table 1:
// 2MR flops for Ttm).
func (p *TtmPlan) FlopCount() int64 { return 2 * int64(p.X.NNZ()) * int64(p.R) }

// Ttm is the convenience one-shot form: prepare and execute sequentially.
func Ttm(x *tensor.COO, u *tensor.Matrix, mode int) (*tensor.SemiCOO, error) {
	p, err := PrepareTtm(x, mode, u.Cols)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(u)
}
