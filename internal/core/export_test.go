package core

import "repro/internal/tensor"

// This file exports to the core_test package — whose tests reach the
// tree plans through internal/levels, which imports core — what those
// tests need of the package's internals.

// TtmStreamValues is ttmStreamValues.
const TtmStreamValues = ttmStreamValues

// ExecuteBlocks runs executeBlocks over blocks [lo, hi) into out.
func (p *MttkrpHiCOOPlan) ExecuteBlocks(lo, hi int, mats []*tensor.Matrix, out []tensor.Value, atomicUpd bool) {
	p.executeBlocks(lo, hi, mats, out, atomicUpd)
}

// HasOwners reports whether ExecuteOMP has built the plan's mode-sorted
// copy.
func (p *MttkrpPlan) HasOwners() bool { return p.owners != nil }

// HasOwners reports whether ExecuteOMP has built the plan's block-row
// sorted copy.
func (p *MttkrpHiCOOPlan) HasOwners() bool { return p.owners != nil }

// FiberBody is a Ttv or Ttm plan's fiber view, its output values and its
// owner arm; Perm is set on a length-grouped layout (Grouped).
type FiberBody struct {
	Fptr []int64
	KInd []tensor.Index
	Vals []tensor.Value
	Out  []tensor.Value
	Perm []int32
	k    fiberKernel
}

// Body returns the plan's fiber view; its slices alias the plan's.
func (p *TtmPlan) Body() FiberBody { return fiberBody(p.k) }

// Body returns the plan's fiber view; its slices alias the plan's.
func (p *TtmHiCOOPlan) Body() FiberBody { return fiberBody(p.k) }

// Body returns the plan's fiber view; its slices alias the plan's.
func (p *TtvPlan) Body() FiberBody { return fiberBody(p.k) }

// Body returns the plan's fiber view; its slices alias the plan's.
func (p *TtvHiCOOPlan) Body() FiberBody { return fiberBody(p.k) }

func fiberBody(k fiberKernel) FiberBody {
	return FiberBody{Fptr: k.fptr, KInd: k.kInd, Vals: k.vals, Out: k.out, Perm: k.perm, k: k}
}

// Grouped returns the length-grouped layout whole-tensor Ttv runs over
// (its slices alias the plan's), and false if Prepare built none.
func (b FiberBody) Grouped() (FiberBody, bool) {
	if b.k.grouped == nil {
		return FiberBody{}, false
	}
	return fiberBody(*b.k.grouped), true
}

// Ttm runs ttmFibers over fibers [lo, hi) into out instead of the plan's
// output.
func (b FiberBody) Ttm(out []tensor.Value, lo, hi int, u *tensor.Matrix) {
	k := b.k
	k.out = out
	k.ttmFibers(lo, hi, u)
}

// Ttv runs ttvFibers over fibers [lo, hi) into out instead of the plan's
// output; on a grouped layout fiber f writes out[Perm[f]].
func (b FiberBody) Ttv(out []tensor.Value, lo, hi int, v tensor.Vector) {
	k := b.k
	k.out = out
	k.ttvFibers(lo, hi, v)
}
