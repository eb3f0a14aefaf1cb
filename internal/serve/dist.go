package serve

import (
	"context"
	"fmt"

	"repro/internal/dist"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/roofline"
)

// maxDistRanks bounds the simulated worker count one request may ask
// for: each rank is a goroutine plus a shard copy of the tensor, so an
// unbounded value would let one request allocate arbitrarily.
const maxDistRanks = 64

// distExec runs a plan on the distributed layer: the tensor sharded
// mode-wise across ranks simulated workers, Mttkrp combined by ring
// allreduce, Ttv gathered at the root, worker failures re-sharded
// around by the engine. The response carries the usual trial fields
// plus a DistInfo section with measured and alpha-beta-modeled
// communication.
type distExec struct {
	onWorkbench
	ranks  int
	format dist.Format
}

// resolveDist validates a request that asked for ranks and binds it to
// the distributed executor.
func resolveDist(p *plan, ranks int) (*distExec, error) {
	if ranks < 0 {
		return nil, badRequest("ranks must be >= 0, got %d", ranks)
	}
	if ranks > maxDistRanks {
		return nil, badRequest("ranks %d exceeds the maximum %d", ranks, maxDistRanks)
	}
	okKernel := p.kernel == roofline.Mttkrp || p.kernel == roofline.Ttv
	okFormat := p.format == roofline.COO || p.format == roofline.HiCOO
	if !okKernel || !okFormat {
		err := badRequest("distributed path supports Mttkrp and Ttv on COO and HiCOO, not %s on %s", p.kernel, p.format)
		err.body.Kernel, err.body.Format = p.kernel.String(), p.format.String()
		return nil, err
	}
	d := &distExec{ranks: ranks, format: dist.FormatCOO}
	if p.format == roofline.HiCOO {
		d.format = dist.FormatHiCOO
	}
	return d, nil
}

// cost adds the engine when it is not cached: the tensor sharded (one
// COO copy spread across workers, charged as one), and per rank a
// partial of the dims[mode] × R output for the allreduce.
func (d *distExec) cost(s *Server, p *plan) int64 {
	cost, fp, dims := s.baseCost(p)
	if _, ok := s.cache.peek(distKey(p.entry.Name, d.format, d.ranks)); !ok {
		mode := p.mode
		if mode < 0 || mode >= len(dims) {
			mode = 0 // execute rejects it once the dataset is loaded
		}
		cost += fp.Workbench + int64(d.ranks)*dims[mode]*int64(s.cfg.Bench.R)*4
	}
	return cost
}

func (d *distExec) run(ctx context.Context, s *Server, p *plan) (*RunResponse, error) {
	wb := d.wb
	// Engines are cached per (dataset, format, ranks). An engine
	// serializes its own runs and keeps its fault-tolerance state
	// (removed workers stay removed), so repeated requests observe a
	// consistent simulated cluster.
	val, engHit, err := s.cache.getOrCreate(ctx, distKey(p.entry.Name, d.format, d.ranks), func() (any, error) {
		return dist.NewEngine(wb.X, dist.Options{
			Ranks:     d.ranks,
			Format:    d.format,
			BlockBits: s.cfg.Bench.BlockBits,
		})
	})
	if err != nil {
		return nil, err
	}
	eng := val.(*dist.Engine)

	info := &DistInfo{Ranks: d.ranks}
	resp := &RunResponse{
		Variant:      fmt.Sprintf("%s/%s@dist", p.kernel, p.format),
		Outcome:      "ok",
		Backend:      "dist",
		CacheHit:     engHit,
		WorkbenchHit: d.wbHit,
		Dist:         info,
	}
	sp := obs.Begin("daemon.dist", resp.Variant, obs.PhaseTrial, -1)
	sp.Attr("ranks", fmt.Sprint(d.ranks))
	before := eng.Stats()
	var out any
	elapsed, err := s.timed(ctx, func(ctx context.Context) error {
		if p.kernel == roofline.Mttkrp {
			res, err := eng.Mttkrp(ctx, p.mode, wb.Mats(), wb.R())
			if err != nil {
				return err
			}
			out = res.Out
			info.CommBytes, info.CommMessages, info.ModeledCommSec = res.CommBytes, res.CommMessages, res.ModeledCommSec
			resp.Flops = int64(wb.X.Order()) * int64(wb.X.NNZ()) * int64(wb.R())
			return nil
		}
		res, err := eng.Ttv(ctx, p.mode, wb.Vec(p.mode)) // resolveDist admits no third kernel
		if err != nil {
			return err
		}
		out = res.Out
		info.CommBytes, info.CommMessages, info.ModeledCommSec = res.CommBytes, res.CommMessages, res.ModeledCommSec
		resp.Flops = 2 * int64(wb.X.NNZ())
		return nil
	})
	after := eng.Stats()
	outcome := "ok"
	if err != nil {
		outcome = "error"
	}
	sp.Attr("outcome", outcome)
	sp.End()
	if err != nil {
		return nil, err
	}
	resp.Attempts = int(after.Attempts - before.Attempts)
	info.LiveWorkers = after.Workers
	if info.Reshards = after.Reshards - before.Reshards; info.Reshards > 0 {
		resp.Outcome = "recovered"
	}
	return p.finish(ctx, resp, elapsed, wb, func() kernelreg.Canon { return kernelreg.CanonOf(out) })
}
