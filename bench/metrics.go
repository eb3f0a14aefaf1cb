package main

// metricSpec declares one metric the benchmark prints. BENCHMARK.json
// lists exactly these (a unit test compares the two), and every later
// performance claim in the repository is made with these names.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd are the metrics a user of the suite sees, each with a
// regression bound in BENCHMARK.json. Every workload prints all of them,
// always from an untraced, single-threaded run. A `_x` metric is "paired
// frozen reference time / measured time" over the metric's cells: times
// faster than the textbook single-threaded implementation in bench/ref.
// Both sides are quiet times, the mean of the fastest tenth of a cell's
// timed calls (see quiet), pooled over the run's three set-up passes.
//
// ISSUE 12 lists three more here. They are per-layer metrics instead,
// because their run-to-run spread on this host does not fit a bound of
// a tenth: device_s (gpusim.device_s, a raw time), stream_x
// (ooc.stream_x) and hot_p50_ms (serve.hot_p50_ms, a raw latency, with
// its steadier ratio to an echo request beside it as serve.hot_x). Their
// cells run in the traced run only.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower"},
	{"ew_x", "x", "higher"},
	{"ttv_x", "x", "higher"},
	{"ttm_x", "x", "higher"},
	{"mttkrp_x", "x", "higher"},
	{"tree_x", "x", "higher"},
	{"load_x", "x", "higher"},
	{"prepare_x", "x", "higher"},
	{"cpals_x", "x", "higher"},
}

// perLayer are the 127 single-layer metrics of the traced run, named
// module prefix + suffix. They carry no regression bound.
var perLayer = []metricSpec{
	// Machine yardsticks: drift here with flat `_x` metrics means the
	// machine moved, not the code.
	{"roofline.triad_gb_per_s", "GB/s", "higher"},
	{"roofline.ert_dram_gb_per_s", "GB/s", "higher"},
	{"roofline.ert_peak_gflops", "GFLOP/s", "higher"},
	{"ref.tew_s", "s", "lower"},
	{"ref.ts_s", "s", "lower"},
	{"ref.ttv_s", "s", "lower"},
	{"ref.ttm_s", "s", "lower"},
	{"ref.mttkrp_s", "s", "lower"},
	{"ref.sort_s", "s", "lower"},
	{"ref.read_s", "s", "lower"},

	{"tensor.load_s", "s", "lower"},
	{"tensor.load_mb_per_s", "MB/s", "higher"},
	{"tensor.validate_s", "s", "lower"},
	{"tensor.write_tns_mb_per_s", "MB/s", "higher"},
	{"tensor.write_bten_mb_per_s", "MB/s", "higher"},
	{"tensor.write_tiled_mb_per_s", "MB/s", "higher"},
	{"tensor.tile_read_mb_per_s", "MB/s", "higher"},
	{"dataset.materialize_s", "s", "lower"},

	{"hicoo.from_coo_ns_per_nnz", "ns", "lower"},
	{"hicoo.except_mode_ns_per_nnz", "ns", "lower"},
	{"hicoo.blocks", "count", "lower"},
	{"csf.from_coo_ns_per_nnz", "ns", "lower"},
	{"levels.build_bcsf_ns_per_nnz", "ns", "lower"},
	{"levels.block_root_ns_per_nnz", "ns", "lower"},
	{"fcoo.from_coo_ns_per_nnz", "ns", "lower"},

	{"kernelreg.prepare_s", "s", "lower"},
	{"kernelreg.build_all_s", "s", "lower"},
	{"kernelreg.cost.csf_from_coo", "ns", "lower"},
	{"kernelreg.cost.levels_build", "ns", "lower"},
	{"kernelreg.cost.block_root", "ns", "lower"},
	{"kernelreg.verify_s", "s", "lower"},
	{"kernelreg.verify_max_dev", "ratio", "lower"},

	{"core.tew.coo_gflops", "GFLOP/s", "higher"},
	{"core.tew.hicoo_gflops", "GFLOP/s", "higher"},
	{"core.ts.coo_gflops", "GFLOP/s", "higher"},
	{"core.ts.hicoo_gflops", "GFLOP/s", "higher"},
	{"core.ttv.coo_gflops", "GFLOP/s", "higher"},
	{"core.ttv.hicoo_gflops", "GFLOP/s", "higher"},
	{"core.ttm.coo_gflops", "GFLOP/s", "higher"},
	{"core.ttm.hicoo_gflops", "GFLOP/s", "higher"},
	{"core.mttkrp.coo_gflops", "GFLOP/s", "higher"},
	{"core.mttkrp.hicoo_gflops", "GFLOP/s", "higher"},
	{"core.tew.coo_roof_frac", "ratio", "higher"},
	{"core.ts.coo_roof_frac", "ratio", "higher"},
	{"core.ttv.coo_roof_frac", "ratio", "higher"},
	{"core.ttm.coo_roof_frac", "ratio", "higher"},
	{"core.mttkrp.coo_roof_frac", "ratio", "higher"},
	{"core.tew.serial_x", "x", "higher"},
	{"core.ts.serial_x", "x", "higher"},
	{"core.ttv.serial_x", "x", "higher"},
	{"core.ttm.serial_x", "x", "higher"},
	{"core.mttkrp.serial_x", "x", "higher"},

	{"csf.ttv_gflops", "GFLOP/s", "higher"},
	{"csf.mttkrp_gflops", "GFLOP/s", "higher"},
	{"levels.ttm.csf_gflops", "GFLOP/s", "higher"},
	{"levels.ttv.bcsf_gflops", "GFLOP/s", "higher"},
	{"levels.ttm.bcsf_gflops", "GFLOP/s", "higher"},
	{"levels.mttkrp.bcsf_gflops", "GFLOP/s", "higher"},

	{"parallel.for_empty_ns", "ns", "lower"},
	{"parallel.tew_speedup", "x", "higher"},
	{"parallel.ts_speedup", "x", "higher"},
	{"parallel.ttv_speedup", "x", "higher"},
	{"parallel.ttm_speedup", "x", "higher"},
	{"parallel.mttkrp_speedup", "x", "higher"},
	{"parallel.chunks", "count", "lower"},
	{"parallel.atomic_adds", "count", "lower"},
	{"parallel.cas_retries", "count", "lower"},
	{"parallel.cas_retry_ratio", "ratio", "lower"},
	{"parallel.reductions", "count", "lower"},
	{"parallel.workspace_reuses", "count", "higher"},
	{"parallel.workspace_misses", "count", "lower"},
	{"parallel.cells_owner", "count", "higher"},
	{"parallel.cells_atomic", "count", "lower"},
	{"parallel.cells_privatized", "count", "lower"},

	{"gpusim.device_s", "s", "lower"},
	{"gpusim.launches", "count", "lower"},
	{"gpusim.blocks", "count", "lower"},
	{"gpusim.ns_per_block", "ns", "lower"},
	{"gpusim.mttkrp_coo_s", "s", "lower"},
	{"fcoo.ttv_gpu_s", "s", "lower"},
	{"core.multigpu_ttv_s", "s", "lower"},

	{"algo.cpals_s", "s", "lower"},
	{"algo.cpals_fit", "ratio", "higher"},
	{"algo.cpals_mttkrp_frac", "ratio", "lower"},
	{"algo.cpals_self_s", "s", "lower"},

	{"ooc.stream_x", "x", "higher"},
	{"ooc.mttkrp_s", "s", "lower"},
	{"ooc.ttv_s", "s", "lower"},
	{"ooc.tiles", "count", "lower"},
	{"ooc.bytes_read", "B", "lower"},
	{"ooc.evictions", "count", "lower"},
	{"ooc.prefetch_hits", "count", "higher"},
	{"ooc.prefetch_stalls", "count", "lower"},
	{"ooc.stall_frac", "ratio", "lower"},
	{"ooc.peak_bytes", "B", "lower"},
	{"ooc.budget_bytes", "B", "lower"},

	{"dist.mttkrp_x", "x", "higher"},
	{"dist.mttkrp_s", "s", "lower"},
	{"dist.ttv_s", "s", "lower"},
	{"dist.comm_bytes", "B", "lower"},
	{"dist.comm_messages", "count", "lower"},
	{"dist.modeled_comm_s", "s", "lower"},
	{"dist.reshards", "count", "lower"},

	{"serve.hot_x", "x", "higher"},
	{"serve.hot_p50_ms", "ms", "lower"},
	{"serve.hot_p99_ms", "ms", "lower"},
	{"serve.echo_p50_ms", "ms", "lower"},
	{"serve.hot_req_per_s", "1/s", "higher"},
	{"serve.overhead_p50_ms", "ms", "lower"},
	{"serve.cold_ms", "ms", "lower"},
	{"serve.requests", "count", "higher"},
	{"serve.failed", "count", "lower"},
	{"serve.cache_hits", "count", "higher"},
	{"serve.cache_misses", "count", "lower"},
	{"serve.batch_joined", "count", "higher"},
	{"govern.admitted", "count", "higher"},
	{"govern.shed", "count", "lower"},
	{"govern.cancelled", "count", "lower"},
	{"resilience.retries", "count", "lower"},
	{"resilience.fallbacks", "count", "lower"},
	{"resilience.breaker_trips", "count", "lower"},
	{"resilience.timeouts", "count", "lower"},

	{"obs.trace_overhead_frac", "ratio", "lower"},
	{"obs.spans", "count", "lower"},
	{"runtime.peak_heap_mb", "MB", "lower"},
	{"runtime.gc_cycles", "count", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
}
