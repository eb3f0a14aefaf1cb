package main

import (
	"strings"

	"repro/bench/record"
	"repro/internal/kernelreg"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// find returns the cells whose name satisfies match, in round order.
func find(cells []*cell, match func(name string) bool) []*cell {
	var out []*cell
	for _, c := range cells {
		if match(c.name) {
			out = append(out, c)
		}
	}
	return out
}

func named(name string) func(string) bool { return func(n string) bool { return n == name } }

// modes matches "prefix" itself and "prefix.m<N>": every mode of one
// (layer, kernel, format) cell family.
func modes(prefix string) func(string) bool {
	return func(n string) bool {
		if n == prefix {
			return true
		}
		rest, ok := strings.CutPrefix(n, prefix+".m")
		return ok && !strings.Contains(rest, ".")
	}
}

// times sums the per-round times of cells (seconds per call).
func times(cells []*cell) []float64 {
	series := make([][]float64, len(cells))
	for i, c := range cells {
		series[i] = c.t
	}
	return sumRounds(series...)
}

// refTimes sums, round by round, the paired reference time behind every
// cell: the numerator of a ratio metric.
func refTimes(cells []*cell) []float64 {
	var series [][]float64
	for _, c := range cells {
		for _, p := range c.pairs {
			w := make([]float64, len(p.ref.t))
			for r, t := range p.ref.t {
				w[r] = p.weight * t
			}
			series = append(series, w)
		}
	}
	return sumRounds(series...)
}

// speedup is the per-round ratio "paired reference time / cell time"
// over a cell set.
func speedup(cells []*cell) []float64 { return ratios(refTimes(cells), times(cells)) }

func inGroup(cells []*cell, group string) []*cell {
	var out []*cell
	for _, c := range cells {
		if c.group == group {
			out = append(out, c)
		}
	}
	return out
}

// aux returns one cell's noted series (nil when the cell or key is
// absent).
func aux(cells []*cell, name, key string) []float64 {
	for _, c := range find(cells, named(name)) {
		return c.aux[key]
	}
	return nil
}

// quietRatio is "paired reference time / cell time" over a cell set,
// both sides taken as quiet times (see quiet): how many times faster
// than the frozen references the cells run while the host leaves them
// alone.
func quietRatio(cells []*cell) float64 {
	var num, den float64
	for _, c := range cells {
		den += quiet(c.calls)
		for _, p := range c.pairs {
			num += p.weight * quiet(p.ref.calls)
		}
	}
	return safeDiv(num, den)
}

// modelParams measures the Table 1 quantities of the main tensor in one
// mode, for the computed (not measured) byte counts of the roofline
// fractions.
func (s *state) modelParams(mode int) roofline.Params {
	return roofline.Params{
		Order: s.x.Order(), M: int64(s.x.NNZ()),
		MF: int64(tensor.ComputeFiberStats(s.x, mode).NumFibers),
		Nb: int64(s.wb.HX().NumBlocks()),
		R:  int64(s.wb.R()), BlockSize: 1 << s.wb.BlockBits(),
	}
}

// runInfo is what a traced run knows beyond the cells.
type runInfo struct {
	setup                  setupTimes
	ertDRAM, ertPeak       float64
	verifyS, verifyMaxDev  float64
	counters               map[string]int64 // obs counter deltas over the traced rounds
	rounds                 int              // traced rounds
	tracerSpans            int
	gcCycles               uint32
	gcPauseMs              float64
	untracedRoundS, roundS []float64
}

// perLayerValues computes every per-layer metric from the traced rounds.
func (s *state) perLayerValues(h *harness, info runInfo) map[string]float64 {
	cells := s.cells
	v := make(map[string]float64)
	med := median
	cellTime := func(match func(string) bool) []float64 { return times(find(cells, match)) }
	perRound := func(total int64) float64 { return safeDiv(float64(total), float64(info.rounds)) }

	triadGBs := perSecond(3*4*triadN/1e9, cellTime(named("roofline.triad")))
	v["roofline.triad_gb_per_s"] = med(triadGBs)
	v["roofline.ert_dram_gb_per_s"] = info.ertDRAM
	v["roofline.ert_peak_gflops"] = info.ertPeak

	for _, k := range []string{"tew", "ts", "ttv", "ttm", "mttkrp"} {
		v["ref."+k+"_s"] = med(cellTime(modes("ref." + k)))
	}
	v["ref.sort_s"] = med(cellTime(named("ref.sort")))
	v["ref.read_s"] = med(cellTime(named("ref.read")))

	loadS := med(aux(cells, "tensor.load", "load_s"))
	v["tensor.load_s"] = loadS
	v["tensor.load_mb_per_s"] = safeDiv(float64(s.inputBytes)/1e6, loadS)
	v["tensor.validate_s"] = med(aux(cells, "tensor.load", "validate_s"))
	v["tensor.write_tns_mb_per_s"] = info.setup.writeMBs["tns"]
	v["tensor.write_bten_mb_per_s"] = info.setup.writeMBs["bten"]
	v["tensor.write_tiled_mb_per_s"] = info.setup.writeMBs["tiled"]
	var tileBytes int64
	for i := range s.tiles.Tiles {
		tileBytes += int64(s.tiles.Tiles[i].Bytes)
	}
	v["tensor.tile_read_mb_per_s"] = safeDiv(float64(tileBytes)/1e6, med(cellTime(named("tensor.tile_read"))))
	v["dataset.materialize_s"] = info.setup.materialize

	nsPerNNZ := func(name string) float64 { return safeDiv(med(cellTime(named(name)))*1e9, float64(s.x.NNZ())) }
	v["hicoo.from_coo_ns_per_nnz"] = nsPerNNZ("hicoo.from_coo")
	v["hicoo.except_mode_ns_per_nnz"] = nsPerNNZ("hicoo.except_mode")
	v["hicoo.blocks"] = float64(s.hicooBlocks)
	v["csf.from_coo_ns_per_nnz"] = nsPerNNZ("csf.from_coo")
	v["levels.build_bcsf_ns_per_nnz"] = nsPerNNZ("levels.build_bcsf")
	v["levels.block_root_ns_per_nnz"] = nsPerNNZ("levels.block_root")
	v["fcoo.from_coo_ns_per_nnz"] = nsPerNNZ("fcoo.from_coo")

	v["kernelreg.prepare_s"] = med(cellTime(named("kernelreg.prepare")))
	v["kernelreg.build_all_s"] = info.setup.buildAll
	// The planner's learned ns/nnz per conversion edge: what the main
	// workbench measured while building every instance, else what the
	// prepare cell's fresh workbench measured, else the planner's prior.
	mainCosts := s.wb.Costs().Snapshot()
	cost := func(edge string) float64 {
		if c, ok := mainCosts[edge]; ok {
			return c
		}
		if c, ok := s.prepCosts[edge]; ok {
			return c
		}
		return s.wb.Costs().Estimate(edge)
	}
	v["kernelreg.cost.csf_from_coo"] = cost(kernelreg.EdgeCSFFromCOO)
	v["kernelreg.cost.levels_build"] = cost(kernelreg.EdgeBuild + ":" + roofline.BCSF.String())
	v["kernelreg.cost.block_root"] = cost(kernelreg.EdgeBlockRoot)
	v["kernelreg.verify_s"] = info.verifyS
	v["kernelreg.verify_max_dev"] = info.verifyMaxDev

	// Kernel families: GFLOPS from the instances' own flop counts, roof
	// fraction from the variants' computed byte models over the triad of
	// the same round, serial baseline and speedup from the serial rung.
	gflops := func(prefix string) float64 {
		fam := find(cells, modes(prefix))
		var flops float64
		for _, c := range fam {
			flops += float64(c.kern.inst.Flops)
		}
		return med(perSecond(flops/1e9, times(fam)))
	}
	params := make([]roofline.Params, s.x.Order())
	for mode := range params {
		params[mode] = s.modelParams(mode)
	}
	for _, k := range []string{"tew", "ts", "ttv", "ttm", "mttkrp"} {
		coo := "core." + k + ".coo"
		v[coo+"_gflops"] = gflops(coo)
		v["core."+k+".hicoo_gflops"] = gflops("core." + k + ".hicoo")

		fam := find(cells, modes(coo))
		var bytes float64
		for _, c := range fam {
			_, b := c.kern.v.Model(params[c.kern.mode])
			bytes += float64(b)
		}
		achieved := perSecond(bytes/1e9, times(fam)) // GB/s, computed bytes
		v["core."+k+".coo_roof_frac"] = med(ratios(achieved, triadGBs))

		serial := find(cells, func(n string) bool {
			base, ok := strings.CutSuffix(n, ".serial")
			return ok && modes(coo)(base)
		})
		refSerial := find(cells, func(n string) bool {
			base, ok := strings.CutSuffix(n, ".serial")
			return ok && modes("ref."+k)(base)
		})
		v["core."+k+".serial_x"] = med(ratios(times(refSerial), times(serial)))
		v["parallel."+k+"_speedup"] = med(ratios(times(serial), times(fam)))
	}
	v["csf.ttv_gflops"] = gflops("csf.ttv.csf")
	v["csf.mttkrp_gflops"] = gflops("csf.mttkrp.csf")
	v["levels.ttm.csf_gflops"] = gflops("levels.ttm.csf")
	v["levels.ttv.bcsf_gflops"] = gflops("levels.ttv.bcsf")
	v["levels.ttm.bcsf_gflops"] = gflops("levels.ttm.bcsf")
	v["levels.mttkrp.bcsf_gflops"] = gflops("levels.mttkrp.bcsf")

	v["parallel.for_empty_ns"] = med(cellTime(named("parallel.for_empty"))) * 1e9
	ctr := info.counters
	v["parallel.chunks"] = perRound(ctr["parallel.chunks"])
	v["parallel.atomic_adds"] = perRound(ctr["parallel.atomic_adds"])
	v["parallel.cas_retries"] = perRound(ctr["parallel.cas_retries"])
	v["parallel.cas_retry_ratio"] = safeDiv(float64(ctr["parallel.cas_retries"]), float64(ctr["parallel.atomic_adds"]))
	v["parallel.reductions"] = perRound(ctr["parallel.reductions"])
	v["parallel.workspace_reuses"] = perRound(ctr["workspace.reuses"])
	v["parallel.workspace_misses"] = perRound(ctr["workspace.misses"])
	for _, c := range cells {
		if c.kern != nil && !c.serial && c.kern.inst.Strategy != nil {
			v["parallel.cells_"+c.kern.inst.Strategy()]++
		}
	}

	var launches, blocks int64
	device := inGroup(cells, "gpusim.device_s")
	v["gpusim.device_s"] = med(times(device))
	for _, c := range device {
		launches += c.ctr["gpusim.launches"]
		blocks += c.ctr["gpusim.blocks"]
	}
	v["gpusim.launches"] = perRound(launches)
	v["gpusim.blocks"] = perRound(blocks)
	v["gpusim.ns_per_block"] = safeDiv(med(times(device))*1e9, perRound(blocks))
	v["gpusim.mttkrp_coo_s"] = med(cellTime(named("gpusim.mttkrp_coo")))
	v["fcoo.ttv_gpu_s"] = med(cellTime(named("fcoo.ttv_gpu")))
	v["core.multigpu_ttv_s"] = med(cellTime(named("core.multigpu_ttv")))

	cpS := cellTime(named("algo.cpals"))
	cpChild := aux(cells, "algo.cpals", "mttkrp_s")
	v["algo.cpals_s"] = med(cpS)
	v["algo.cpals_fit"] = s.cpFit
	v["algo.cpals_mttkrp_frac"] = med(ratios(cpChild, cpS))
	self := make([]float64, 0, len(cpChild))
	for r := range cpChild {
		if r < len(cpS) {
			self = append(self, cpS[r]-cpChild[r])
		}
	}
	v["algo.cpals_self_s"] = med(self)

	v["ooc.stream_x"] = med(speedup(inGroup(cells, "ooc.stream_x")))
	v["ooc.mttkrp_s"] = med(cellTime(named("ooc.mttkrp")))
	v["ooc.ttv_s"] = med(cellTime(named("ooc.ttv")))
	for _, key := range []string{"tiles", "bytes_read", "evictions", "prefetch_hits", "prefetch_stalls"} {
		v["ooc."+key] = med(sumRounds(aux(cells, "ooc.mttkrp", key), aux(cells, "ooc.ttv", key)))
	}
	v["ooc.stall_frac"] = safeDiv(v["ooc.prefetch_stalls"], v["ooc.prefetch_stalls"]+v["ooc.prefetch_hits"])
	v["ooc.peak_bytes"] = med(aux(cells, "ooc.mttkrp", "peak_bytes"))
	v["ooc.budget_bytes"] = med(aux(cells, "ooc.mttkrp", "budget_bytes"))

	v["dist.mttkrp_x"] = med(speedup(find(cells, named("dist.mttkrp"))))
	v["dist.mttkrp_s"] = med(cellTime(named("dist.mttkrp")))
	v["dist.ttv_s"] = med(cellTime(named("dist.ttv")))
	for _, key := range []string{"comm_bytes", "comm_messages", "modeled_comm_s"} {
		v["dist."+key] = med(sumRounds(aux(cells, "dist.mttkrp", key), aux(cells, "dist.ttv", key)))
	}
	if reshards := aux(cells, "dist.mttkrp", "reshards"); len(reshards) > 0 {
		v["dist.reshards"] = reshards[len(reshards)-1] // the engine's running total
	}

	// Per request: the bare echo round trip sent just before it over this
	// request's own round trip.
	v["serve.hot_x"] = med(ratios(s.hot.echoMs, s.hot.latMs))
	v["serve.hot_p50_ms"] = med(s.hot.latMs)
	v["serve.hot_p99_ms"] = record.Quantile(s.hot.latMs, 0.99)
	v["serve.echo_p50_ms"] = med(s.hot.echoMs)
	v["serve.hot_req_per_s"] = safeDiv(float64(len(s.hot.latMs)), s.hot.busyS)
	v["serve.overhead_p50_ms"] = med(s.hot.overMs)
	v["serve.cold_ms"] = info.setup.coldMs
	v["serve.requests"] = float64(s.hot.requests)
	v["serve.failed"] = float64(s.hot.failed)
	v["serve.cache_hits"] = float64(ctr["daemon.cache.hits"])
	v["serve.cache_misses"] = float64(ctr["daemon.cache.misses"])
	v["serve.batch_joined"] = float64(ctr["daemon.batch.joined"])
	for _, name := range []string{"govern.admitted", "govern.shed", "govern.cancelled",
		"resilience.retries", "resilience.fallbacks", "resilience.breaker_trips", "resilience.timeouts"} {
		v[name] = float64(ctr[name])
	}

	v["obs.trace_overhead_frac"] = safeDiv(median(info.roundS), median(info.untracedRoundS)) - 1
	v["obs.spans"] = float64(len(h.spans) + info.tracerSpans)
	v["runtime.peak_heap_mb"] = h.peakMB
	v["runtime.gc_cycles"] = float64(info.gcCycles)
	v["runtime.gc_pause_ms"] = info.gcPauseMs
	return v
}

// perSecond turns per-round times into per-round rates of a fixed amount
// of work (0 for a round that took no time).
func perSecond(amount float64, ts []float64) []float64 {
	out := make([]float64, len(ts))
	for r, t := range ts {
		out[r] = safeDiv(amount, t)
	}
	return out
}
