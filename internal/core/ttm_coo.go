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
	// X is the input, sorted for Mode; nil for a plan over another
	// format's fiber view (NewTtmPlan).
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

	k fiberKernel // the value computation over the plan's fiber view
}

// PrepareTtm performs the preprocessing stage of Ttm in mode n with R
// output columns.
func PrepareTtm(x *tensor.COO, mode, r int) (*TtmPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Ttm mode %d out of range for order-%d tensor", mode, x.Order())
	}
	xs, view, heads := cooFibers(x, mode)
	p, err := NewTtmPlan(view, heads, r)
	if err != nil {
		return nil, err
	}
	p.X = xs
	return p, nil
}

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
func (p *TtmPlan) FlopCount() int64 { return 2 * int64(len(p.k.vals)) * int64(p.R) }

// Ttm is the convenience one-shot form: prepare and execute sequentially.
func Ttm(x *tensor.COO, u *tensor.Matrix, mode int) (*tensor.SemiCOO, error) {
	p, err := PrepareTtm(x, mode, u.Cols)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(u)
}
