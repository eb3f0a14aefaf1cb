// Package perfmodel predicts kernel execution time and GFLOPS on the
// paper's four platforms (Table 4) from workload statistics, replacing
// the physical machines this reproduction cannot run on. It extends the
// Roofline bound (Table 1 traffic / ERT bandwidth) with the second-order
// effects the paper's five observations attribute performance to:
//
//   - cache residency: working sets fitting the LLC run at cache rather
//     than DRAM bandwidth (Observation 2's above-Roofline small tensors);
//   - irregular gathers: Ttv/Ttm/Mttkrp gather vector/matrix rows through
//     tensor indices, overfetching cache lines when the gathered set
//     exceeds the LLC, amplified on multi-socket NUMA machines
//     (Observation 3);
//   - atomics: Mttkrp's output updates serialize at a per-platform atomic
//     throughput (low on CPUs, much higher on Volta — Observation 2's
//     "improved atomic operation performance");
//   - load imbalance: thread-per-fiber (Ttv/Ttm GPU) and block-per-CUDA-
//     block (HiCOO-Mttkrp GPU) mappings inherit the fiber/block skew
//     (Observation 4);
//   - HiCOO locality: Morton-ordered blocks improve gather locality on
//     CPUs with large LLCs, less so on GPUs (Observation 4).
//
// Constants are calibrated so the paper's qualitative results hold; the
// model makes no claim of absolute-number fidelity (see DESIGN.md).
package perfmodel

import (
	"math"

	"repro/internal/hicoo"
	"repro/internal/platform"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Workload carries the statistics of one (tensor, mode, R) benchmark
// configuration consumed by Predict.
type Workload struct {
	// Params holds the Table 1 quantities (Order, M, MF, Nb, R, BlockSize).
	roofline.Params
	// Dims holds the mode sizes (for gather working-set estimation).
	Dims []int64
	// Mode is the kernel mode n.
	Mode int
	// FiberImbalance is max/mean mode-n fiber length.
	FiberImbalance float64
	// BlockImbalance is max/mean non-zeros per HiCOO block.
	BlockImbalance float64
	// Collisions is M divided by the distinct mode-n indices (atomic
	// contention density for Mttkrp).
	Collisions float64
}

// FromTensor measures a Workload from a tensor for the given mode, factor
// count, and HiCOO block bits. It is preprocessing-stage work (sorting a
// clone) and should be cached per (tensor, mode); use FromTensorAllModes
// to amortize the HiCOO conversion across modes.
func FromTensor(x *tensor.COO, mode, r int, blockBits uint8) Workload {
	return FromTensorAllModes(x, r, blockBits)[mode]
}

// FromTensorAllModes measures the Workload of every mode at once,
// converting to HiCOO (whose block statistics are mode-independent) a
// single time.
func FromTensorAllModes(x *tensor.COO, r int, blockBits uint8) []Workload {
	h := hicoo.FromCOO(x, blockBits)
	st := h.ComputeStats()
	nb := int64(st.NumBlocks)
	blockImb := 1.0
	if st.MeanNNZPerBlock > 0 {
		blockImb = float64(st.MaxNNZPerBlock) / st.MeanNNZPerBlock
	}
	dims := make([]int64, x.Order())
	for n, d := range x.Dims {
		dims[n] = int64(d)
	}
	out := make([]Workload, x.Order())
	for mode := range out {
		fs := tensor.ComputeFiberStats(x, mode)
		out[mode] = Workload{
			Params: roofline.Params{
				Order: x.Order(), M: int64(x.NNZ()), MF: int64(fs.NumFibers),
				Nb: nb, R: int64(r), BlockSize: 1 << blockBits,
			},
			Dims:           dims,
			Mode:           mode,
			FiberImbalance: fs.Imbalance,
			BlockImbalance: blockImb,
			Collisions:     tensor.ModeCollisions(x, mode),
		}
	}
	return out
}

// ScaleTo returns a copy of the workload with the non-zero count set to m
// and the mode sizes replaced by dims, scaling the derived counts (MF, Nb)
// proportionally. Because the dataset stand-ins preserve the originals'
// density regime and skew class, measuring structure at stand-in scale and
// scaling the counts to Table 2/3's true sizes yields paper-scale model
// inputs without materializing 100M-non-zero tensors.
func (w Workload) ScaleTo(m int64, dims []int64) Workload {
	out := w
	if w.M > 0 && m > 0 {
		r := float64(m) / float64(w.M)
		out.M = m
		out.MF = int64(float64(w.MF) * r)
		if out.MF > m {
			out.MF = m
		}
		if out.MF < 1 {
			out.MF = 1
		}
		out.Nb = int64(float64(w.Nb) * r)
		if out.Nb > m {
			out.Nb = m
		}
		if out.Nb < 1 {
			out.Nb = 1
		}
	}
	if len(dims) == len(w.Dims) {
		out.Dims = append([]int64(nil), dims...)
	}
	return out
}

// Breakdown is the result of one prediction, exposing the contributing
// terms for the harness's analysis output.
type Breakdown struct {
	TimeSec float64
	GFLOPS  float64
	// Term times (seconds); TimeSec = max(Mem, Compute, Atomic) ×
	// Imbalance + Overhead.
	MemTime     float64
	ComputeTime float64
	AtomicTime  float64
	Overhead    float64
	// ImbalanceFactor multiplies the dominant term.
	ImbalanceFactor float64
	// EffBW is the bandwidth the memory term used (GB/s) after cache
	// residency and gather penalties.
	EffBW float64
	// Flops and Bytes are the Table 1 quantities.
	Flops int64
	Bytes int64
	// OI is the accurate flops/bytes ratio.
	OI float64
	// RooflineGFLOPS is the plain Roofline bound for reference.
	RooflineGFLOPS float64
	// Efficiency is GFLOPS / RooflineGFLOPS (can exceed 1 for
	// cache-resident workloads).
	Efficiency float64
}

// Model constants (calibration documented in DESIGN.md §2 and verified
// relationally by the package tests).
const (
	cacheLine = 64.0
	// gatherOverfetchTtv: Ttv reads 4-byte vector entries through an
	// irregular index, so a missing line delivers 64 bytes for 4 useful.
	gatherOverfetchTtv = 8.0
	// ttmRowPenalty: Ttm/Mttkrp gather whole R-length rows (64 bytes at
	// R=16), so lines are fully used but row misses still stall.
	ttmRowPenalty = 0.55
	// numaGatherSlope: extra gather cost per additional socket.
	numaGatherSlope = 0.9
	// numaNonStreamExp: the non-streaming kernels (Ttv/Ttm/Mttkrp) lose
	// effective bandwidth as sockets^exp on NUMA CPUs — remote accesses
	// and cross-socket coherence that "numactl --interleave" cannot hide
	// for irregular access patterns (Observation 3).
	numaNonStreamExp = 0.75
	// hicooGatherRelief: fraction of gather misses HiCOO's Morton
	// blocking removes on CPUs.
	hicooGatherRelief = 0.45
	// hicooStreamBonus: effective-bandwidth bonus of HiCOO's smaller
	// footprint for streaming kernels on CPUs.
	hicooStreamBonus = 1.10
	// computeEfficiency: fraction of theoretical peak reachable by
	// scalar sparse inner loops.
	computeEfficiency = 0.35
	// cpuAtomicOpsPerCore: sustained atomic float adds per second per
	// CPU core under contention.
	cpuAtomicOpsPerCore = 4.0e7
	// gpuAtomicOps: sustained atomicAdd throughput (ops/s).
	pascalAtomicOps = 2.0e10
	voltaAtomicOps  = 6.0e10
	// launchOverheadGPU / parallelOverheadCPU: per-execution fixed costs.
	launchOverheadGPU  = 12e-6
	parallelOverhead   = 4e-6
	denseLatencyFactor = 1.0
)

// Predict estimates one kernel execution on a platform.
func Predict(p *platform.Platform, k roofline.Kernel, f roofline.Format, w Workload) Breakdown {
	flops := roofline.Work(k, w.Params)
	baseBytes := roofline.Bytes(k, f, w.Params)

	var b Breakdown
	b.Flops = flops
	b.Bytes = baseBytes
	b.OI = roofline.OI(k, f, w.Params)
	b.RooflineGFLOPS = roofline.Attainable(p, b.OI)

	// --- Memory term -----------------------------------------------------
	ws := workingSet(k, f, w)
	bw := effectiveBandwidth(p, ws)
	if p.Kind == platform.CPU && f == roofline.HiCOO && (k == roofline.Tew || k == roofline.Ts || k == roofline.Ttv) {
		bw *= hicooStreamBonus
	}
	if p.Kind == platform.CPU && p.Sockets > 1 &&
		(k == roofline.Ttv || k == roofline.Ttm || k == roofline.Mttkrp) {
		bw /= math.Pow(float64(p.Sockets), numaNonStreamExp)
	}
	extra := gatherExtraBytes(p, k, f, w)
	b.EffBW = bw
	b.MemTime = (float64(baseBytes) + extra) / (bw * 1e9)

	// --- Compute term ----------------------------------------------------
	b.ComputeTime = float64(flops) / (p.PeakSPGFLOPS * computeEfficiency * 1e9)

	// --- Atomic term (Mttkrp only) ---------------------------------------
	if k == roofline.Mttkrp {
		ops := float64(w.M) * float64(w.R)
		rate := atomicRate(p)
		contention := 1 + 0.15*math.Log2(1+w.Collisions)
		b.AtomicTime = ops * contention / rate
	}

	// --- Imbalance factor ------------------------------------------------
	b.ImbalanceFactor = imbalance(p, k, f, w)

	// --- Combine ----------------------------------------------------------
	dom := math.Max(b.MemTime, math.Max(b.ComputeTime, b.AtomicTime))
	b.Overhead = overhead(p)
	b.TimeSec = dom*b.ImbalanceFactor + b.Overhead
	if b.TimeSec > 0 {
		b.GFLOPS = float64(flops) / b.TimeSec / 1e9
	}
	if b.RooflineGFLOPS > 0 {
		b.Efficiency = b.GFLOPS / b.RooflineGFLOPS
	}
	return b
}

// workingSet estimates the bytes touched repeatedly across the averaged
// runs — when it fits the LLC the kernel streams from cache.
func workingSet(k roofline.Kernel, f roofline.Format, w Workload) float64 {
	base := float64(roofline.Bytes(k, f, w.Params))
	switch k {
	case roofline.Ttv:
		base += 4 * float64(w.Dims[w.Mode])
	case roofline.Ttm:
		base += 4 * float64(w.Dims[w.Mode]) * float64(w.R)
	case roofline.Mttkrp:
		for _, d := range w.Dims {
			base += 4 * float64(d) * float64(w.R)
		}
	}
	return base
}

// effectiveBandwidth interpolates between LLC and DRAM bandwidth by cache
// residency.
func effectiveBandwidth(p *platform.Platform, ws float64) float64 {
	llc := float64(p.LLCBytes)
	switch {
	case ws <= llc:
		return p.ERTLLCGBs
	case ws <= 4*llc:
		// Geometric interpolation over one octave of overflow.
		t := math.Log2(ws/llc) / 2 // 0..1
		return p.ERTLLCGBs * math.Pow(p.ERTDRAMGBs/p.ERTLLCGBs, t)
	default:
		return p.ERTDRAMGBs
	}
}

// gatherExtraBytes models the cache-line overfetch of irregular accesses,
// scaled by the miss probability of the gathered set against the LLC and
// by the NUMA remote-access penalty.
func gatherExtraBytes(p *platform.Platform, k roofline.Kernel, f roofline.Format, w Workload) float64 {
	var gathered, target float64
	switch k {
	case roofline.Ttv:
		gathered = 4 * float64(w.M) * (gatherOverfetchTtv - 1)
		target = 4 * float64(w.Dims[w.Mode])
	case roofline.Ttm:
		gathered = 4 * float64(w.M) * float64(w.R) * ttmRowPenalty
		target = 4 * float64(w.Dims[w.Mode]) * float64(w.R)
	case roofline.Mttkrp:
		gathered = 4 * float64(w.M) * float64(w.R) * float64(w.Order-1) * ttmRowPenalty
		for n, d := range w.Dims {
			if n != w.Mode {
				target += 4 * float64(d) * float64(w.R)
			}
		}
	default:
		return 0
	}
	miss := missProbability(target, float64(p.LLCBytes))
	numa := 1 + numaGatherSlope*float64(p.Sockets-1)
	relief := 1.0
	if f == roofline.HiCOO && p.Kind == platform.CPU {
		relief = 1 - hicooGatherRelief
	}
	return gathered * miss * numa * relief * denseLatencyFactor
}

// missProbability estimates the gather miss rate. Only about half the
// LLC is effectively available to the gathered set — the kernel's
// streaming traffic (values, indices, outputs) continuously evicts it.
func missProbability(target, llc float64) float64 {
	avail := 0.5 * llc
	if target <= avail {
		return 0.05
	}
	return math.Min(1, 1-avail/target+0.05)
}

func atomicRate(p *platform.Platform) float64 {
	if p.Kind == platform.CPU {
		return cpuAtomicOpsPerCore * float64(p.Cores) / float64(p.Sockets) * 1.5
	}
	if p.Microarch == "Volta" {
		return voltaAtomicOps
	}
	return pascalAtomicOps
}

// imbalance returns the multiplicative load-imbalance factor of the
// platform's parallel mapping for this kernel/format.
func imbalance(p *platform.Platform, k roofline.Kernel, f roofline.Format, w Workload) float64 {
	workers := float64(p.Cores)
	if p.Kind == platform.GPU {
		// Blocks in flight ≈ SM count × occupancy.
		workers = float64(p.Cores) / 64
	}
	switch k {
	case roofline.Ttv, roofline.Ttm:
		// Fiber-parallel on CPU and thread-per-fiber on GPU.
		return blend(w.FiberImbalance, float64(w.MF), workers)
	case roofline.Mttkrp:
		if f == roofline.HiCOO {
			if p.Kind == platform.GPU {
				// One tensor block per CUDA block (§3.4.2): skewed block
				// populations and possibly too few blocks.
				under := 1.0
				if float64(w.Nb) < workers {
					under = workers / math.Max(1, float64(w.Nb))
				}
				return blend(w.BlockImbalance, float64(w.Nb), workers) * under
			}
			return blend(w.BlockImbalance, float64(w.Nb), workers)
		}
		return 1 // non-zero-parallel COO-Mttkrp is balanced
	default:
		return 1
	}
}

// blend interpolates between perfect balance (many items per worker) and
// the raw max/mean skew (items ≈ workers).
func blend(imb, items, workers float64) float64 {
	if imb <= 1 || items <= 0 {
		return 1
	}
	weight := workers / (workers + items/8)
	return 1 + (imb-1)*weight
}

func overhead(p *platform.Platform) float64 {
	if p.Kind == platform.GPU {
		return launchOverheadGPU
	}
	return parallelOverhead
}
