package core

import "repro/internal/tensor"

// This file exports to the core_test package — whose tests reach the
// tree plans through internal/levels, which imports core — what those
// tests need of the package's internals.

// RaceDetector reports a -race test binary.
const RaceDetector = raceDetector

// FiberCut is fiberCut.
var FiberCut = fiberCut

// TtmStreamValues is ttmStreamValues.
const TtmStreamValues = ttmStreamValues

// TtmBody is a Ttm plan's fiber view and its owner arm.
type TtmBody struct {
	Fptr []int64
	KInd []tensor.Index
	Vals []tensor.Value
	k    fiberKernel
}

// Body returns the plan's fiber view; its slices alias the plan's.
func (p *TtmPlan) Body() TtmBody { return ttmBody(p.k) }

// Body returns the plan's fiber view; its slices alias the plan's.
func (p *TtmHiCOOPlan) Body() TtmBody { return ttmBody(p.k) }

func ttmBody(k fiberKernel) TtmBody {
	return TtmBody{Fptr: k.fptr, KInd: k.kInd, Vals: k.vals, k: k}
}

// Run runs ttmFibers over fibers [lo, hi) into out instead of the plan's
// output.
func (b TtmBody) Run(out []tensor.Value, lo, hi int, u *tensor.Matrix) {
	k := b.k
	k.out = out
	k.ttmFibers(lo, hi, u)
}
