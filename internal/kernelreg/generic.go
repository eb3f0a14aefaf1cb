package kernelreg

import (
	"context"
	"fmt"

	"repro/internal/levels"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Generic variant instantiation: the grid cells no hand-tuned override
// claims are filled by the level-iterator kernel bodies in
// internal/levels, prepared on whatever hierarchy the conversion
// planner deems cheapest. The serial rung is always the COO reference
// (SerialRef), matching the CSF/fCOO convention.

// genericModeOrder places the kernel's mode of interest where its
// generic body wants it: Mttkrp assembles the output mode first (root
// subtrees own disjoint output rows — no atomics), Ttv and Ttm reduce
// the product mode at the leaves.
func genericModeOrder(k roofline.Kernel, order, mode int) []int {
	if k == roofline.Mttkrp {
		return modeFirst(order, mode)
	}
	return tensor.ModeOrder(order, mode)
}

// genericPrep returns the Prepare hook of one generated variant.
func genericPrep(k roofline.Kernel, f roofline.Format) func(wb *Workbench, mode int, b Backend) (*Instance, error) {
	site := fmt.Sprintf("%s/%s@%s", k, f, OMP)
	return func(wb *Workbench, mode int, b Backend) (*Instance, error) {
		if b != OMP {
			return nil, badBackend(site, b)
		}
		h, plan, err := wb.Hier(f, genericModeOrder(k, wb.X.Order(), mode), site)
		if err != nil {
			return nil, err
		}
		inst, keep, err := serialRef(wb, k, mode)
		if err != nil {
			return nil, err
		}
		inst.Plan = plan
		switch k {
		case roofline.Ttv:
			v := wb.Vec(mode)
			inst.Run = func(ctx context.Context) error { return keep(levels.Ttv(h, mode, v, wb.Opt(ctx))) }
		case roofline.Ttm:
			u := wb.TtmMat(mode)
			inst.Run = func(ctx context.Context) error { return keep(levels.Ttm(h, mode, u, wb.Opt(ctx))) }
		case roofline.Mttkrp:
			mats := wb.Mats()
			inst.Run = func(ctx context.Context) error { return keep(levels.Mttkrp(h, mode, mats, wb.Opt(ctx))) }
		}
		return inst, nil
	}
}
