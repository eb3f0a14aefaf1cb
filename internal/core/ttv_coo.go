package core

import (
	"fmt"

	"repro/internal/gpusim"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TtvPlan is the prepared state of a COO tensor-times-vector kernel in a
// fixed mode (Algorithm 1, COO-Ttv-OMP). Preprocessing sorts the tensor so
// the mode-n fibers are contiguous, records the fiber pointers fptr, and
// preallocates the order-(N-1) sparse output with MF non-zeros whose
// indices follow the sparse-dense property: they equal the non-product
// coordinates of the input fibers.
type TtvPlan struct {
	// X is the input, sorted for Mode (a sorted clone if the caller's
	// tensor was not already in fiber order); nil for a plan over another
	// format's fiber view (NewTtvPlan).
	X *tensor.COO
	// Mode is the product mode n.
	Mode int
	// Fptr holds the fiber start offsets (MF+1 entries).
	Fptr []int64
	// Out is the preallocated output tensor of order N-1 with MF
	// non-zeros; indices are final, values recomputed per Execute.
	Out *tensor.COO

	k fiberKernel // the value computation over the plan's fiber view
}

// PrepareTtv performs the preprocessing stage of Ttv in mode n.
func PrepareTtv(x *tensor.COO, mode int) (*TtvPlan, error) {
	if mode < 0 || mode >= x.Order() {
		return nil, fmt.Errorf("core: Ttv mode %d out of range for order-%d tensor", mode, x.Order())
	}
	xs, view, heads := cooFibers(x, mode)
	p, err := NewTtvPlan(view, heads)
	if err != nil {
		return nil, err
	}
	p.X = xs
	return p, nil
}

// NumFibers returns MF, the number of mode-n fibers.
func (p *TtvPlan) NumFibers() int { return len(p.Fptr) - 1 }

// ExecuteSeq runs the value computation sequentially: one reduction per
// fiber, y_f = Σ_m x_m · v[k_m].
func (p *TtvPlan) ExecuteSeq(v tensor.Vector) (*tensor.COO, error) {
	return planOut(p.Out, p.k.ttvRange(0, p.NumFibers(), v))
}

// ExecuteOMP runs the value computation owner-computes over independent
// fibers (fiberKernel.ttvOMP); opt.Strategy is ignored.
func (p *TtvPlan) ExecuteOMP(v tensor.Vector, opt parallel.Options) (*tensor.COO, error) {
	return planOut(p.Out, p.k.ttvOMP(v, opt))
}

// ExecuteGPU runs the COO-Ttv-GPU kernel: one thread per fiber (§3.2.2).
func (p *TtvPlan) ExecuteGPU(dev *gpusim.Device, v tensor.Vector) (*tensor.COO, error) {
	return planOut(p.Out, p.k.ttvGPU(dev, 0, p.NumFibers(), v))
}

// ExecuteFibers runs the value computation for fibers [lo, hi) only and
// returns their output values, Out.Vals[lo:hi] — the range entry point
// of partitioned executors (dist ranks): fiber outputs are disjoint, so
// concurrent calls over disjoint ranges need no synchronization.
func (p *TtvPlan) ExecuteFibers(lo, hi int, v tensor.Vector) ([]tensor.Value, error) {
	if lo < 0 || hi < lo || hi > p.NumFibers() {
		return nil, fmt.Errorf("core: Ttv fiber range [%d,%d) outside [0,%d)", lo, hi, p.NumFibers())
	}
	if err := p.k.ttvRange(lo, hi, v); err != nil {
		return nil, err
	}
	return p.Out.Vals[lo:hi], nil
}

// FlopCount returns the floating-point work of one execution (Table 1:
// 2M flops for Ttv).
func (p *TtvPlan) FlopCount() int64 { return 2 * int64(len(p.k.vals)) }

// Ttv is the convenience one-shot form: prepare and execute sequentially.
func Ttv(x *tensor.COO, v tensor.Vector, mode int) (*tensor.COO, error) {
	p, err := PrepareTtv(x, mode)
	if err != nil {
		return nil, err
	}
	return p.ExecuteSeq(v)
}
