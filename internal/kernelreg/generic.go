package kernelreg

import (
	"fmt"

	"repro/internal/levels"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Generic variant instantiation: the grid cells no hand-tuned override
// claims are filled from internal/levels, prepared on the workbench's
// hierarchy of the cell's format (Workbench.Hier). Ttv and Ttm are
// core fiber plans on the hierarchy's leaf level, Mttkrp is csf's tree
// plan on the hierarchy resolved from its root; each has the plan's own
// serial rung and output, the fiber plans the strategy selection too
// (tree Mttkrp commits whole rows, so it resolves none).

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
		h, err := wb.Hier(f, genericModeOrder(k, wb.X.Order(), mode), site)
		if err != nil {
			return nil, err
		}
		return genericInstance(wb, k, h, mode, site)
	}
}

// genericInstance prepares kernel k on the hierarchy h.
func genericInstance(wb *Workbench, k roofline.Kernel, h *levels.Hierarchy, mode int, site string) (*Instance, error) {
	switch k {
	case roofline.Ttv:
		p, err := levels.PrepareTtv(h, mode)
		if err != nil {
			return nil, err
		}
		return wb.instance(site, OMP, operandRungs(p, wb.Vec(mode), p.Out, &ownerComputes))
	case roofline.Ttm:
		p, err := levels.PrepareTtm(h, mode, wb.R())
		if err != nil {
			return nil, err
		}
		return wb.instance(site, OMP, operandRungs(p, wb.TtmMat(mode), p.Out, &ownerComputes))
	}
	p, err := levels.PrepareMttkrp(h, mode, wb.R())
	if err != nil {
		return nil, err
	}
	return wb.instance(site, OMP, operandRungs(p, wb.Mats(), p.Out, nil))
}
