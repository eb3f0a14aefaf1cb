package serve

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/obs"
	"repro/internal/ooc"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// The daemon's out-of-core executor: a plan whose in-core working set
// exceeds the memory budget is re-resolved here instead of 413ing, when
// its kernel can stream (Ttv and Mttkrp over a COO tile stream). The
// dataset is spooled once to a PSTB v3 tile file (ooc.Spool), and the
// kernel runs via internal/ooc holding only a budgeted tile window plus
// its dense operands — the cost the reroute is admitted at.

// ctrOOCReroutes counts over-budget requests the streaming path served.
var ctrOOCReroutes = obs.GetCounter("daemon.ooc_reroutes")

func oocKey(name string) string { return "ooc:" + name }

// streamExec runs a plan on the tile stream.
type streamExec struct {
	// budget is the tile-residency byte budget, decided once: the
	// tensor share of the admission charge and the MemBudget the stream
	// then leases tiles under.
	budget int64
	ds     *oocEntry
}

// newStreamExec sizes the stream for a plan: a quarter of the daemon
// budget, capped at the ooc default so one stream cannot monopolize
// admission headroom, and floored at what the spool's tiles need — a
// budget below the pipeline's two-lease working set would fail fast.
// The floor is charged like the rest: if it no longer fits, admit
// answers the honest 413.
func (s *Server) newStreamExec(p *plan) *streamExec {
	b := s.gov.Budget() / 4
	if b > ooc.DefaultBudget {
		b = ooc.DefaultBudget
	}
	if b < 1<<16 {
		b = 1 << 16
	}
	if min := ooc.SpoolMinBudget(p.entry.Order(), s.cfg.NNZ); b < min {
		b = min
	}
	return &streamExec{budget: b}
}

// cost is the tile-window budget plus the dense operands and output.
// Ttv's sparse output is charged at its worst case (every non-zero its
// own fiber) — honest, so a Ttv whose output alone cannot fit is still
// rejected.
func (e *streamExec) cost(s *Server, p *plan) int64 {
	dims := p.entry.ScaledDims(s.cfg.NNZ)
	var sumDims, maxDim int64
	for _, d := range dims {
		sumDims += int64(d)
		if int64(d) > maxDim {
			maxDim = int64(d)
		}
	}
	if p.kernel == roofline.Mttkrp {
		return e.budget + tensor.ValueBytes*int64(s.cfg.Bench.R)*(sumDims+maxDim) // factor matrices + output
	}
	nnz := int64(s.cfg.NNZ) // the vector, then the output's index columns and values
	return e.budget + tensor.ValueBytes*maxDim + (int64(len(dims)-1)*tensor.IndexBytes+tensor.ValueBytes)*nnz
}

// oocEntry is one cached spooled dataset: the open tile reader over the
// unlinked v3 file, plus lazily built dense operands — the Workbench's
// own constructors, so an ooc response is comparable with an in-core
// run of the same request on a bigger daemon.
type oocEntry struct {
	tr        *tensor.TileReader
	fileBytes int64

	mu   sync.Mutex
	mats []*tensor.Matrix
	vecs map[int]tensor.Vector
}

func (e *oocEntry) factorMats(r int) []*tensor.Matrix {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.mats == nil {
		e.mats = kernelreg.FactorMats(e.tr.Dims, r)
	}
	return e.mats
}

func (e *oocEntry) vec(mode int) tensor.Vector {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.vecs[mode]
	if !ok {
		v = kernelreg.ModeVector(e.tr.Dims, mode)
		e.vecs[mode] = v
	}
	return v
}

// load returns the cached spooled tile file for the plan's dataset,
// materializing and spooling it on first use.
func (e *streamExec) load(ctx context.Context, s *Server, p *plan) (int, error) {
	name := p.entry.Name
	val, _, err := s.cache.getOrCreate(ctx, oocKey(name), func() (any, error) {
		sp := obs.Begin("daemon.ooc_spool", name, obs.PhasePrepare, -1)
		defer sp.End()
		// Materialization is transient: the COO exists only while it is
		// being tiled out to disk, then only the reader's window remains.
		x, err := dataset.Materialize(p.entry, s.cfg.NNZ, s.cfg.Seed)
		if err != nil {
			return nil, err
		}
		tr, size, err := ooc.Spool(x)
		if err != nil {
			return nil, err
		}
		return &oocEntry{tr: tr, fileBytes: size, vecs: make(map[int]tensor.Vector)}, nil
	})
	if err != nil {
		return 0, err
	}
	e.ds = val.(*oocEntry)
	return e.ds.tr.Order(), nil
}

// run streams the kernel under the admitted budget and reports the
// pipeline's stats in the response's OOC section.
func (e *streamExec) run(ctx context.Context, s *Server, p *plan) (*RunResponse, error) {
	tr := e.ds.tr
	opt := ooc.Options{MemBudget: e.budget, Sched: s.cfg.Bench.Sched}
	resp := &RunResponse{
		Variant:  fmt.Sprintf("%s/COO@ooc", p.kernel),
		Outcome:  "ok",
		Backend:  "ooc",
		Attempts: 1,
	}
	var st ooc.Stats
	elapsed, err := s.timed(ctx, func(ctx context.Context) (err error) {
		if p.kernel == roofline.Mttkrp {
			resp.Flops = ooc.MttkrpFlops(tr, s.cfg.Bench.R)
			_, st, err = ooc.Mttkrp(ctx, tr, e.ds.factorMats(s.cfg.Bench.R), p.mode, opt)
			return err
		}
		resp.Flops = ooc.TtvFlops(tr) // resolve marks no third kernel streamable
		_, st, err = ooc.Ttv(ctx, tr, e.ds.vec(p.mode), p.mode, opt)
		return err
	})
	if err != nil {
		return nil, err
	}
	ctrOOCReroutes.Inc()
	resp.OOC = &OOCInfo{
		Budget:         st.Budget,
		PeakBytes:      st.PeakBytes,
		Tiles:          st.Tiles,
		BytesRead:      st.BytesRead,
		Evictions:      st.Evictions,
		PrefetchHits:   st.PrefetchHits,
		PrefetchStalls: st.PrefetchStalls,
		FileBytes:      e.ds.fileBytes,
	}
	return p.finish(ctx, resp, elapsed, nil, nil)
}
