package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"repro/bench/ref"
	"repro/internal/algo"
	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dist"
	"repro/internal/fcoo"
	"repro/internal/hicoo"
	"repro/internal/kernelreg"
	"repro/internal/levels"
	"repro/internal/ooc"
	"repro/internal/parallel"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// tsScalar is the multiplicand kernelreg's Ts variants use; the frozen
// Ts reference must scale by the same value to verify against them.
const tsScalar = 1.000001

// cpRank and cpSweeps fix the CP-ALS cell: rank 16, three full sweeps,
// tolerance 0 so it never stops early.
const (
	cpRank   = 16
	cpSweeps = 3
)

// distRanks is the simulated worker count of the per-layer dist cells.
const distRanks = 4

// triadN is the element count of the bench-owned triad's three float32
// arrays (48 MiB in all: past both L2s, within the shared L3).
const triadN = 1 << 22

var ctx = context.Background()

// layerOf names the module a kernel variant's time is charged to.
func layerOf(v *kernelreg.Variant) string {
	switch {
	case v.Generated:
		return "levels"
	case v.Format == roofline.CSF:
		return "csf"
	}
	return "core"
}

func lower(s fmt.Stringer) string { return strings.ToLower(s.String()) }

// kernelCellName renders "core.ttv.coo.m0", "levels.ttm.bcsf.m2",
// "core.tew.hicoo" (mode-independent kernels carry no mode).
func kernelCellName(v *kernelreg.Variant, mode int) string {
	name := fmt.Sprintf("%s.%s.%s", layerOf(v), lower(v.Kernel), lower(v.Format))
	if v.Caps.ModeDependent {
		name += fmt.Sprintf(".m%d", mode)
	}
	return name
}

// kernel prepares variant (k, f, b) on wb for one mode and wraps its
// native rung in a cell.
func kernel(wb *kernelreg.Workbench, k roofline.Kernel, f roofline.Format, b kernelreg.Backend, mode int) (*cell, error) {
	v, err := kernelreg.Lookup(k, f, b)
	if err != nil {
		return nil, err
	}
	inst, err := v.Prepare(wb, mode)
	if err != nil {
		return nil, fmt.Errorf("prepare %s mode %d: %w", v, mode, err)
	}
	return &cell{
		name: kernelCellName(v, mode),
		ops:  1,
		run:  plain(func() error { return inst.Run(ctx) }),
		kern: &kernelCell{v: v, inst: inst, wb: wb, mode: mode},
	}, nil
}

// serialOf times the same instance's serial rung (per-layer only). It
// must sit before the native cell in the round so the instance's final
// output is the native one the correctness gate checks.
func serialOf(c *cell) *cell {
	inst := c.kern.inst
	return &cell{
		name: c.name + ".serial", ops: 1, serial: true,
		run:  plain(func() error { return inst.Serial(ctx) }),
		kern: c.kern,
	}
}

func refCell(name string, f func()) *cell {
	return &cell{name: name, ops: 1, run: plain(func() error { f(); return nil })}
}

// buildCells assembles the workload's fixed, ordered cell list. Each
// frozen reference sits directly before the cells it pairs with, so the
// two sides of every ratio are timed next to each other on the same
// data.
func (s *state) buildCells() error {
	d := s.refs
	order := s.x.Order()
	var cells []*cell
	add := func(c *cell) *cell { cells = append(cells, c); return c }

	// paired adds the native cells of one (kernel, mode) behind their
	// reference: COO and HiCOO under group, the tree formats under
	// tree_x, plus the COO serial rung for the per-layer baselines.
	paired := func(refc *cell, k roofline.Kernel, group string, mode int) error {
		add(refc)
		for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO, roofline.CSF, roofline.BCSF} {
			if _, err := kernelreg.Lookup(k, f, kernelreg.OMP); err != nil {
				continue // Tew/Ts have no tree variants
			}
			c, err := kernel(s.wb, k, f, kernelreg.OMP, mode)
			if err != nil {
				return err
			}
			c.group = group
			if f == roofline.CSF || f == roofline.BCSF {
				c.group = "tree_x"
			}
			c.pairs = []pairing{{refc, 1}}
			if f == roofline.COO && s.layers {
				add(serialOf(c))
			}
			add(c)
		}
		return nil
	}

	// The references run on as many goroutines as the cells they pair
	// with: one in the end-to-end run, THREADS in the per-layer run, which
	// also times each reference on one goroutine, paired with the COO
	// serial rung.
	nt := threads()
	refPair := func(name string, f func(workers int)) *cell {
		if s.layers {
			add(refCell(name+".serial", func() { f(1) }))
		}
		return refCell(name, func() { f(nt) })
	}
	if err := paired(refPair("ref.tew", d.tew), roofline.Tew, "ew_x", 0); err != nil {
		return err
	}
	if err := paired(refPair("ref.ts", d.ts), roofline.Ts, "ew_x", 0); err != nil {
		return err
	}
	refMttkrp := make([]*cell, order)
	var refTtv1 *cell
	for n := 0; n < order; n++ {
		n := n
		ttv := refPair(fmt.Sprintf("ref.ttv.m%d", n), func(w int) { d.ttv(n, w) })
		if err := paired(ttv, roofline.Ttv, "ttv_x", n); err != nil {
			return err
		}
		if n == 1 {
			refTtv1 = ttv
		}
		ttm := refPair(fmt.Sprintf("ref.ttm.m%d", n), func(w int) { d.ttm(n, w) })
		if err := paired(ttm, roofline.Ttm, "ttm_x", n); err != nil {
			return err
		}
		refMttkrp[n] = refPair(fmt.Sprintf("ref.mttkrp.m%d", n), func(w int) { d.mttkrp(n, w) })
		if err := paired(refMttkrp[n], roofline.Mttkrp, "mttkrp_x", n); err != nil {
			return err
		}
	}

	// The cells below cost a large part of a second per call on the main
	// tensor, so they run on the service tensor (see workload).
	//
	// load_x: the workload's input file, program reader vs frozen reader.
	kernels := len(cells)
	input, svc := s.input, s.svcRefs
	refRead := add(&cell{name: "ref.read", ops: 1})
	refRead.run = plain(func() error {
		var t *ref.COO
		var err error
		if s.w.Input == "tns" {
			t, err = ref.ReadTNS(input, nt)
		} else {
			t, err = ref.ReadBTEN(input)
		}
		if err == nil && t.NNZ() != s.svc.NNZ() {
			err = fmt.Errorf("frozen reader returned %d non-zeros, want %d", t.NNZ(), s.svc.NNZ())
		}
		return err
	})
	load := add(&cell{name: "tensor.load", ops: 1, group: "load_x", pairs: []pairing{{refRead, 1}}})
	load.run = plain(func() error {
		t0 := time.Now()
		t, err := tensor.ReadFile(input)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := t.Validate(); err != nil {
			return err
		}
		load.note("load_s", t1.Sub(t0).Seconds())
		load.note("validate_s", time.Since(t1).Seconds())
		if t.NNZ() != s.svc.NNZ() {
			return fmt.Errorf("loaded %d non-zeros, want %d", t.NNZ(), s.svc.NNZ())
		}
		return nil
	})

	// prepare_x: conversion and sorting cost on a fresh workbench, against
	// the frozen lexicographic sort of the same tensor.
	var unsorted *ref.COO
	refSort := add(&cell{name: "ref.sort", ops: 1})
	refSort.before = func() { unsorted = svc.x.Clone() }
	refSort.run = plain(func() error { ref.Sort(unsorted, ref.ModeLast(order, 0)); return nil })
	prep := add(&cell{name: "kernelreg.prepare", ops: 1, noBatch: true, group: "prepare_x", pairs: []pairing{{refSort, 1}}})
	prep.run = plain(func() error {
		wb := kernelreg.NewWorkbench(s.svc, kernelreg.DefaultConfig())
		for _, kf := range []struct {
			k roofline.Kernel
			f roofline.Format
		}{{roofline.Ttv, roofline.HiCOO}, {roofline.Mttkrp, roofline.CSF}, {roofline.Ttm, roofline.BCSF}} {
			v, err := kernelreg.Lookup(kf.k, kf.f, kernelreg.OMP)
			if err != nil {
				return err
			}
			if _, err := v.Prepare(wb, 0); err != nil {
				return err
			}
		}
		s.prepCosts = wb.Costs().Snapshot()
		return nil
	})

	// cpals_x: three CP-ALS sweeps against the Mttkrps they are made of,
	// as one reference sample directly before the cell.
	refCP := add(refCell("ref.cpals", func() {
		for sweep := 0; sweep < cpSweeps; sweep++ {
			for n := 0; n < order; n++ {
				svc.mttkrp(n, nt)
			}
		}
	}))
	refCP.noBatch = true
	cp := add(&cell{name: "algo.cpals", ops: 1, noBatch: true, group: "cpals_x", pairs: []pairing{{refCP, 1}}})
	cp.run = plain(func() error { return s.runCPALS(cp) })

	// A round visits the service-tensor cells twice, half-way through
	// the kernel cells and after them: they are three of the eight ratio
	// metrics but a fifth of a round's time, and a quiet time needs calls.
	service := cells[kernels:]
	s.cells = cells
	s.order = append(append(append(append([]*cell(nil),
		cells[:kernels/2]...), service...), cells[kernels/2:kernels]...), service...)
	if s.layers {
		extra, err := s.layerCells(refMttkrp[0], refTtv1)
		if err != nil {
			return err
		}
		s.cells = append(s.cells, extra...)
		s.order = append(s.order, extra...)
	}
	return nil
}

func noteOOC(c *cell, st ooc.Stats) {
	c.note("tiles", float64(st.Tiles))
	c.note("bytes_read", float64(st.BytesRead))
	c.note("evictions", float64(st.Evictions))
	c.note("prefetch_hits", float64(st.PrefetchHits))
	c.note("prefetch_stalls", float64(st.PrefetchStalls))
	c.note("peak_bytes", float64(st.PeakBytes))
	c.note("budget_bytes", float64(st.Budget))
}

// runCPALS is the CP-ALS cell. The end-to-end run calls algo.CPALS as a
// user would; the per-layer run injects a timed Mttkrp through
// algo.CPALSWith so the solver's self time (total - child) shows.
func (s *state) runCPALS(c *cell) error {
	opt := parallel.Options{Schedule: parallel.Dynamic}
	var res *algo.CPResult
	var err error
	if !s.layers {
		res, err = algo.CPALS(s.svc, cpRank, cpSweeps, 0, s.seed, opt)
	} else {
		plans := make([]*core.MttkrpPlan, s.svc.Order())
		for n := range plans {
			if plans[n], err = core.PrepareMttkrp(s.svc, n, cpRank); err != nil {
				return err
			}
		}
		var child time.Duration
		res, err = algo.CPALSWith(s.svc, cpRank, cpSweeps, 0, s.seed,
			func(mode int, factors []*tensor.Matrix) (*tensor.Matrix, error) {
				t0 := time.Now()
				out, err := plans[mode].ExecuteOMP(factors, opt)
				child += time.Since(t0)
				return out, err
			})
		c.note("mttkrp_s", child.Seconds())
	}
	if err != nil {
		return err
	}
	if math.IsNaN(res.Fit) || res.Fit > 1+1e-6 || res.Iters != cpSweeps {
		return fmt.Errorf("CP-ALS fit %v after %d sweeps", res.Fit, res.Iters)
	}
	s.cpFit = res.Fit
	return nil
}

// layerCells are the per-layer-only cells of the traced run: the
// simulated devices, the streaming executor, the daemon's hot path,
// machine yardsticks, each conversion on its own, the tile reader, the
// empty parallel loop and the distributed engine. The references are the
// ones buildCells already placed in the round.
func (s *state) layerCells(refMttkrp0, refTtv1 *cell) ([]*cell, error) {
	x, bits, order := s.x, s.wb.BlockBits(), s.x.Order()
	natural := make([]int, order)
	for n := range natural {
		natural[n] = n
	}
	layer := func(name string, f func() error) *cell {
		return &cell{name: name, ops: 1, noBatch: true, run: plain(f)}
	}
	var cells []*cell
	add := func(c *cell) *cell { cells = append(cells, c); return c }

	// gpusim.device_s: the simulated-GPU paths on the service tensor, mode 0. No
	// paired reference: the simulated device's cost is per-thread
	// bookkeeping that no textbook loop resembles, and a ratio to one was
	// measured to be noisier (9-26 %) than the raw time (2-6 %).
	for _, dv := range []struct {
		name string
		k    roofline.Kernel
		f    roofline.Format
		b    kernelreg.Backend
	}{
		{"gpusim.mttkrp_coo", roofline.Mttkrp, roofline.COO, kernelreg.GPU},
		{"fcoo.ttv_gpu", roofline.Ttv, roofline.FCOO, kernelreg.GPU},
		{"core.multigpu_ttv", roofline.Ttv, roofline.COO, kernelreg.MultiGPU},
	} {
		c, err := kernel(s.svcWb, dv.k, dv.f, dv.b, 0)
		if err != nil {
			return nil, err
		}
		c.name, c.group = dv.name, "gpusim.device_s"
		add(c)
	}

	// ooc.stream_x: the out-of-core executor over the tiled file, against
	// "load the whole file, then compute in core" with the frozen reader
	// and the frozen kernels. Each streamed kernel reads the file once, so
	// each is paired with one whole-file read plus its in-core reference.
	refTiled := add(&cell{name: "ref.read_tiled", ops: 1})
	refTiled.run = plain(func() error { _, err := ref.ReadBTEN(s.files["tiled"]); return err })
	oopt := ooc.Options{MemBudget: 8 * s.tiles.MaxTileBytes(), Sched: parallel.Options{Schedule: parallel.Dynamic}}
	om := add(&cell{name: "ooc.mttkrp", ops: 1, noBatch: true, group: "ooc.stream_x",
		pairs: []pairing{{refTiled, 1}, {refMttkrp0, 1}}})
	om.run = plain(func() error {
		out, stats, err := ooc.Mttkrp(ctx, s.tiles, s.wb.Mats(), 0, oopt)
		if err != nil {
			return err
		}
		s.oocMttkrpOut = out
		noteOOC(om, stats)
		return nil
	})
	ot := add(&cell{name: "ooc.ttv", ops: 1, noBatch: true, group: "ooc.stream_x",
		pairs: []pairing{{refTiled, 1}, {refTtv1, 1}}})
	ot.run = plain(func() error {
		out, stats, err := ooc.Ttv(ctx, s.tiles, s.wb.Vec(1), 1, oopt)
		if err != nil {
			return err
		}
		s.oocTtvOut = out
		noteOOC(ot, stats)
		return nil
	})

	// serve.*: the daemon's hot path (the daemon is up by the time the
	// cells are first called).
	add(&cell{name: "serve.hot", noBatch: true, ops: 2 * threads() * requestsPerClient, run: s.hotRound})

	tx, ty, tz := make([]float32, triadN), make([]float32, triadN), make([]float32, triadN)
	for i := range tx {
		tx[i], ty[i] = float32(i%7)+1, float32(i%5)+1
	}
	cells = append(cells, layer("roofline.triad", func() error { triad(tz, tx, ty, threads()); return nil }))

	empty := layer("parallel.for_empty", func() error {
		return parallel.For(threads(), parallel.Options{Schedule: parallel.Static}, func(lo, hi, w int) {})
	})
	empty.noBatch = false
	cells = append(cells, empty)

	cells = append(cells,
		layer("hicoo.from_coo", func() error {
			s.hicooBlocks = hicoo.FromCOO(x, bits).NumBlocks()
			return nil
		}),
		layer("hicoo.except_mode", func() error { hicoo.FromCOOExceptMode(x, 0, bits); return nil }),
		layer("csf.from_coo", func() error { _, err := csf.FromCOO(x, natural); return err }),
		layer("levels.build_bcsf", func() error {
			_, err := levels.Build(x, levels.BCSFSig(order, bits), natural)
			return err
		}),
		layer("fcoo.from_coo", func() error { _, err := fcoo.FromCOO(x, 0, s.wb.SegSize()); return err }),
	)
	c, err := csf.FromCOO(x, natural)
	if err != nil {
		return nil, err
	}
	tree := levels.FromCSF(c)
	cells = append(cells, layer("levels.block_root", func() error { _, err := levels.BlockRoot(tree, bits); return err }))

	var tile tensor.Tile
	cells = append(cells, layer("tensor.tile_read", func() error {
		for i := 0; i < s.tiles.NumTiles(); i++ {
			if err := s.tiles.ReadTile(i, &tile); err != nil {
				return err
			}
		}
		return nil
	}))

	var engine *dist.Engine
	var engineErr error
	var once sync.Once
	eng := func() (*dist.Engine, error) {
		once.Do(func() { engine, engineErr = dist.NewEngine(x, dist.Options{Ranks: distRanks}) })
		return engine, engineErr
	}
	dm := layer("dist.mttkrp", nil)
	dm.pairs = []pairing{{refMttkrp0, 1}}
	dm.run = plain(func() error {
		e, err := eng()
		if err != nil {
			return err
		}
		res, err := e.Mttkrp(ctx, 0, s.wb.Mats(), s.wb.R())
		if err != nil {
			return err
		}
		s.distMttkrpOut = res.Out
		dm.note("comm_bytes", float64(res.CommBytes))
		dm.note("comm_messages", float64(res.CommMessages))
		dm.note("modeled_comm_s", res.ModeledCommSec)
		dm.note("reshards", float64(e.Stats().Reshards))
		return nil
	})
	dt := layer("dist.ttv", nil)
	dt.run = plain(func() error {
		e, err := eng()
		if err != nil {
			return err
		}
		res, err := e.Ttv(ctx, 0, s.wb.Vec(0))
		if err != nil {
			return err
		}
		s.distTtvOut = res.Out
		dt.note("comm_bytes", float64(res.CommBytes))
		dt.note("comm_messages", float64(res.CommMessages))
		dt.note("modeled_comm_s", res.ModeledCommSec)
		return nil
	})
	return append(cells, dm, dt), nil
}

// triad is the bench-owned STREAM triad z = x + 1.5*y over n goroutines;
// it owes nothing to internal/parallel so it measures the machine, not
// the runtime.
func triad(z, x, y []float32, n int) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		lo, hi := len(z)*w/n, len(z)*(w+1)/n
		wg.Add(1)
		go func() {
			defer wg.Done()
			xs, ys, zs := x[lo:hi], y[lo:hi], z[lo:hi]
			for i := range zs {
				zs[i] = xs[i] + 1.5*ys[i]
			}
		}()
	}
	wg.Wait()
}
