package kernelreg

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/levels"
	"repro/internal/roofline"
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
		return append([]int{mode}, otherModesOf(order, mode)...)
	}
	return append(otherModesOf(order, mode), mode)
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
		nnz := int64(wb.X.NNZ())
		var cur any
		inst := &Instance{Plan: plan}
		inst.out = func() any { return cur }
		inst.Check = func() error { return checkFinite(cur) }
		switch k {
		case roofline.Ttv:
			v := wb.Vec(mode)
			inst.Flops = 2 * nnz
			inst.Run = func(ctx context.Context) error {
				out, err := levels.Ttv(h, mode, v, wb.Opt(ctx))
				if err == nil {
					cur = out
				}
				return err
			}
			ref, err := core.PrepareTtv(wb.FiberSorted(mode), mode)
			if err != nil {
				return nil, err
			}
			inst.Serial = func(context.Context) error {
				_, err := ref.ExecuteSeq(v)
				if err == nil {
					cur = ref.Out
				}
				return err
			}
		case roofline.Ttm:
			u := wb.TtmMat(mode)
			inst.Flops = 2 * nnz * int64(wb.R())
			inst.Run = func(ctx context.Context) error {
				out, err := levels.Ttm(h, mode, u, wb.Opt(ctx))
				if err == nil {
					cur = out
				}
				return err
			}
			ref, err := core.PrepareTtm(wb.FiberSorted(mode), mode, wb.R())
			if err != nil {
				return nil, err
			}
			inst.Serial = func(context.Context) error {
				_, err := ref.ExecuteSeq(u)
				if err == nil {
					cur = ref.Out
				}
				return err
			}
		case roofline.Mttkrp:
			mats := wb.Mats()
			inst.Flops = int64(wb.X.Order()) * nnz * int64(wb.R())
			inst.Run = func(ctx context.Context) error {
				out, err := levels.Mttkrp(h, mode, mats, wb.Opt(ctx))
				if err == nil {
					cur = out
				}
				return err
			}
			ref, err := core.PrepareMttkrp(wb.X, mode, wb.R())
			if err != nil {
				return nil, err
			}
			inst.Serial = func(context.Context) error {
				_, err := ref.ExecuteSeq(mats)
				if err == nil {
					cur = ref.Out
				}
				return err
			}
		default:
			return nil, fmt.Errorf("kernelreg: no generic body for %s", k)
		}
		return inst, nil
	}
}
