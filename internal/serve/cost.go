package serve

import (
	"fmt"

	"repro/internal/dist"
	"repro/internal/kernelreg"
)

// Cache keys are shared between the lookup paths and the cost model so
// the two can never drift: each executor's cost peeks the same keys its
// load and run fill.
func wbKey(name string) string { return "wb:" + name }

func instKey(name string, v *kernelreg.Variant, mode int) string {
	return fmt.Sprintf("inst:%s/%s/m%d", name, v, mode)
}

func distKey(name string, format dist.Format, ranks int) string {
	return fmt.Sprintf("dist:%s/%s/p%d", name, format, ranks)
}

// baseCost is what the two in-memory executors are charged alike: the
// per-execution transient, plus the dataset workbench when it is not
// yet resident. Skipping resident components is the property that lets
// cheap warm requests keep flowing while one huge cold request waits at
// the admission gate. The footprint and the scaled dims are returned
// for the executor's own component.
func (s *Server) baseCost(p *plan) (cost int64, fp kernelreg.Footprint, dims []int64) {
	sdims := p.entry.ScaledDims(s.cfg.NNZ)
	dims = make([]int64, len(sdims))
	for i, d := range sdims {
		dims[i] = int64(d)
	}
	fp = kernelreg.EstimateFootprint(p.kernel, p.format, dims, int64(s.cfg.NNZ), s.cfg.Bench)
	cost = fp.Run
	if _, ok := s.cache.peek(wbKey(p.entry.Name)); !ok {
		cost += fp.Workbench
	}
	return cost, fp, dims
}

func (e *instExec) cost(s *Server, p *plan) int64 {
	cost, fp, _ := s.baseCost(p)
	if _, ok := s.cache.peek(instKey(p.entry.Name, e.v, p.mode)); !ok {
		cost += fp.Instance
	}
	return cost
}
