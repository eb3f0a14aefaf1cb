// Benchmarks regenerating every table and figure of the paper's
// evaluation (§5), one testing.B benchmark per artifact, plus the
// ablations DESIGN.md calls out. Custom metrics carry the figures' units:
// GFLOPS (per kernel/format), bytes (storage tables), GB/s (roofline).
//
// Run everything:  go test -bench=. -benchmem
// One figure:      go test -bench=BenchmarkFigure7 -benchtime=1x
package pasta_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	pasta "repro"
	"repro/internal/csf"
	"repro/internal/dataset"
	"repro/internal/hicoo"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// benchNNZ keeps stand-ins small enough for go test -bench=. to finish
// quickly; pastabench regenerates the same artifacts at larger scale.
const benchNNZ = 20000

var (
	tensorCache = map[string]*tensor.COO{}
	cacheMu     sync.Mutex
)

func benchTensor(b *testing.B, id string) *tensor.COO {
	b.Helper()
	cacheMu.Lock()
	defer cacheMu.Unlock()
	if t, ok := tensorCache[id]; ok {
		return t
	}
	e, err := dataset.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	t, err := dataset.Materialize(e, benchNNZ, 7)
	if err != nil {
		b.Fatal(err)
	}
	tensorCache[id] = t
	return t
}

// benchEntries is the reduced dataset the figure benchmarks sweep: one
// representative per class (regular/irregular × small, real graph, real
// uniform, 4th order).
var benchEntries = []string{"vast", "choa", "deli", "nips4d", "regS", "irrS", "irr2S4d"}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

// BenchmarkTable1OI regenerates Table 1: the work/bytes/OI formulas
// evaluated on a concrete cubical tensor.
func BenchmarkTable1OI(b *testing.B) {
	x := benchTensor(b, "regS")
	cfg := metrics.DefaultConfig()
	var sink float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := metrics.Workloads(x, cfg)
		for _, k := range roofline.Kernels {
			rp := roofline.Params{Order: ws[0].Order, M: ws[0].M, MF: ws[0].MF, Nb: ws[0].Nb, R: ws[0].R, BlockSize: ws[0].BlockSize}
			sink += roofline.OI(k, roofline.COO, rp) + roofline.OI(k, roofline.HiCOO, rp)
		}
	}
	b.ReportMetric(sink/float64(b.N), "OI-sum")
}

// BenchmarkTable2RealTensors regenerates Table 2: materializing the
// real-tensor stand-ins and measuring their density.
func BenchmarkTable2RealTensors(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range dataset.RealTensors() {
			x, err := dataset.Materialize(e, 2000, 7)
			if err != nil {
				b.Fatal(err)
			}
			if x.NNZ() == 0 {
				b.Fatal("empty stand-in")
			}
		}
	}
	b.ReportMetric(15, "tensors")
}

// BenchmarkTable3Synthetic regenerates Table 3: running both generators
// over the synthetic recipes.
func BenchmarkTable3Synthetic(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, e := range dataset.Synthetic() {
			x, err := dataset.Materialize(e, 2000, 7)
			if err != nil {
				b.Fatal(err)
			}
			if x.NNZ() == 0 {
				b.Fatal("empty tensor")
			}
		}
	}
	b.ReportMetric(15, "tensors")
}

// BenchmarkTable4Platforms regenerates Table 4's derived quantities.
func BenchmarkTable4Platforms(b *testing.B) {
	var sink float64
	for i := 0; i < b.N; i++ {
		for _, p := range platform.All() {
			sink += p.EfficiencyDRAM() + roofline.RidgeOI(p)
		}
	}
	b.ReportMetric(float64(len(platform.All())), "platforms")
	_ = sink
}

// ---------------------------------------------------------------------------
// Figure 3: Roofline models
// ---------------------------------------------------------------------------

// BenchmarkFigure3Roofline builds the four Roofline curves with kernel
// marks (the ERT host measurement is exercised once outside the loop).
func BenchmarkFigure3Roofline(b *testing.B) {
	h := roofline.MeasureHost(true)
	b.ReportMetric(h.ERTDRAMGBs, "host-GB/s")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range platform.All() {
			c := roofline.BuildCurve(p, 1.0/32, 128, 32)
			if len(c.DRAM) == 0 {
				b.Fatal("empty curve")
			}
			if len(roofline.KernelMarks(p)) != 5 {
				b.Fatal("missing kernel marks")
			}
		}
	}
}

// ---------------------------------------------------------------------------
// Figures 4-7: kernel GFLOPS per platform (modeled series + host-measured
// kernels)
// ---------------------------------------------------------------------------

var (
	workloadCache   = map[string][]perfmodel.Workload{}
	workloadCacheMu sync.Mutex
)

func benchWorkloads(b *testing.B, id string) []perfmodel.Workload {
	b.Helper()
	x := benchTensor(b, id)
	workloadCacheMu.Lock()
	defer workloadCacheMu.Unlock()
	if ws, ok := workloadCache[id]; ok {
		return ws
	}
	ws := metrics.Workloads(x, metrics.DefaultConfig())
	workloadCache[id] = ws
	return ws
}

func benchFigure(b *testing.B, platName string) {
	p, err := platform.ByName(platName)
	if err != nil {
		b.Fatal(err)
	}
	// Workload measurement is preprocessing: hoisted out of the timed loop
	// (and cached across the four figure benchmarks).
	all := make([][]perfmodel.Workload, len(benchEntries))
	for i, id := range benchEntries {
		all[i] = benchWorkloads(b, id)
	}
	var sumGF float64
	var points int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sumGF, points = 0, 0
		for _, ws := range all {
			for _, k := range roofline.Kernels {
				for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
					r := metrics.ModelFromWorkloads(p, ws, k, f)
					sumGF += r.GFLOPS
					points++
				}
			}
		}
	}
	b.ReportMetric(sumGF/float64(points), "avg-GFLOPS")
}

// BenchmarkFigure4Bluesky regenerates the Figure 4 series (Bluesky).
func BenchmarkFigure4Bluesky(b *testing.B) { benchFigure(b, "Bluesky") }

// BenchmarkFigure5Wingtip regenerates the Figure 5 series (Wingtip).
func BenchmarkFigure5Wingtip(b *testing.B) { benchFigure(b, "Wingtip") }

// BenchmarkFigure6DGX1P regenerates the Figure 6 series (DGX-1P).
func BenchmarkFigure6DGX1P(b *testing.B) { benchFigure(b, "DGX-1P") }

// BenchmarkFigure7DGX1V regenerates the Figure 7 series (DGX-1V).
func BenchmarkFigure7DGX1V(b *testing.B) { benchFigure(b, "DGX-1V") }

// ---------------------------------------------------------------------------
// Host-measured kernel benches: the wall-clock counterpart of the figure
// bars, one sub-benchmark per kernel × format, reporting GFLOPS.
// ---------------------------------------------------------------------------

// BenchmarkKernelsHost times every kernel × format on the host for a
// representative tensor (the measured rows of Figures 4-7).
func BenchmarkKernelsHost(b *testing.B) {
	x := benchTensor(b, "irrS")
	opt := parallel.Options{Schedule: parallel.Dynamic}
	r := pasta.DefaultR

	y := x.Clone()
	for i := range y.Vals {
		y.Vals[i] = 2
	}
	hx := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	hy := hicoo.FromCOO(y, hicoo.DefaultBlockBits)
	v := tensor.RandomVector(int(x.Dims[0]), pasta.GenerateSeeded(1))
	u := tensor.NewMatrix(int(x.Dims[0]), r)
	u.Randomize(pasta.GenerateSeeded(2))
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(pasta.GenerateSeeded(int64(n)))
	}

	run := func(name string, flops int64, body func()) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				body()
			}
			secs := b.Elapsed().Seconds() / float64(b.N)
			if secs > 0 {
				b.ReportMetric(float64(flops)/secs/1e9, "GFLOPS")
			}
		})
	}

	tew, err := pasta.PrepareTew(x, y, pasta.OpAdd)
	if err != nil {
		b.Fatal(err)
	}
	run("Tew/COO", tew.FlopCount(), func() { tew.ExecuteOMP(opt) })
	tewH, err := pasta.PrepareTewHiCOO(hx, hy, pasta.OpAdd)
	if err != nil {
		b.Fatal(err)
	}
	run("Tew/HiCOO", tewH.FlopCount(), func() { tewH.ExecuteOMP(opt) })

	ts, err := pasta.PrepareTs(x, 1.0001, pasta.OpMul)
	if err != nil {
		b.Fatal(err)
	}
	run("Ts/COO", ts.FlopCount(), func() { ts.ExecuteOMP(opt) })
	tsH, err := pasta.PrepareTsHiCOO(hx, 1.0001, pasta.OpMul)
	if err != nil {
		b.Fatal(err)
	}
	run("Ts/HiCOO", tsH.FlopCount(), func() { tsH.ExecuteOMP(opt) })

	ttv, err := pasta.PrepareTtv(x, 0)
	if err != nil {
		b.Fatal(err)
	}
	run("Ttv/COO", ttv.FlopCount(), func() { _, _ = ttv.ExecuteOMP(v, opt) })
	ttvH, err := pasta.PrepareTtvHiCOO(x, 0, hicoo.DefaultBlockBits)
	if err != nil {
		b.Fatal(err)
	}
	run("Ttv/HiCOO", ttvH.FlopCount(), func() { _, _ = ttvH.ExecuteOMP(v, opt) })

	ttm, err := pasta.PrepareTtm(x, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	run("Ttm/COO", ttm.FlopCount(), func() { _, _ = ttm.ExecuteOMP(u, opt) })
	ttmH, err := pasta.PrepareTtmHiCOO(x, 0, r, hicoo.DefaultBlockBits)
	if err != nil {
		b.Fatal(err)
	}
	run("Ttm/HiCOO", ttmH.FlopCount(), func() { _, _ = ttmH.ExecuteOMP(u, opt) })

	mk, err := pasta.PrepareMttkrp(x, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	run("Mttkrp/COO", mk.FlopCount(), func() { _, _ = mk.ExecuteOMP(mats, opt) })
	mkH, err := pasta.PrepareMttkrpHiCOO(hx, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	run("Mttkrp/HiCOO", mkH.FlopCount(), func() { _, _ = mkH.ExecuteOMP(mats, opt) })
}

// BenchmarkKernelsGPUSim times the kernels on the functional GPU
// simulator (semantics check at scale; GPU GFLOPS come from the model).
func BenchmarkKernelsGPUSim(b *testing.B) {
	x := benchTensor(b, "regS")
	dev := pasta.NewDevice("bench-gpu", 0)
	ts, err := pasta.PrepareTs(x, 2, pasta.OpMul)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("Ts", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ts.ExecuteGPU(dev)
		}
	})
	ttv, err := pasta.PrepareTtv(x, 0)
	if err != nil {
		b.Fatal(err)
	}
	v := tensor.RandomVector(int(x.Dims[0]), pasta.GenerateSeeded(3))
	b.Run("Ttv", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = ttv.ExecuteGPU(dev, v)
		}
	})
}

// ---------------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------------

// BenchmarkDistributedMttkrp runs the sharded engine's Mttkrp across
// rank counts, reporting the measured allreduce volume (§7 "distributed
// systems" extension). The engine partitions its mode slabs on the
// first call and reuses them, as a CP-ALS sweep does.
func BenchmarkDistributedMttkrp(b *testing.B) {
	x := benchTensor(b, "regS")
	r := pasta.DefaultR
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(pasta.GenerateSeeded(int64(n)))
	}
	for _, p := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("ranks=%d", p), func(b *testing.B) {
			e, err := pasta.NewDistEngine(x, pasta.DistOptions{Ranks: p})
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			var commBytes int64
			for i := 0; i < b.N; i++ {
				res, err := e.Mttkrp(context.Background(), 0, mats, r)
				if err != nil {
					b.Fatal(err)
				}
				commBytes = res.CommBytes
			}
			b.ReportMetric(float64(commBytes), "comm-bytes")
		})
	}
}

// BenchmarkAblationBlockSize sweeps the HiCOO block size (DESIGN.md §6).
func BenchmarkAblationBlockSize(b *testing.B) {
	x := benchTensor(b, "irrS")
	for _, bits := range []uint8{4, 6, 7, 8} {
		b.Run(fmt.Sprintf("B=%d", 1<<bits), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				h := hicoo.FromCOO(x, bits)
				bytes = h.StorageBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// BenchmarkAblationGHiCOO compares gHiCOO uncompressed-mode choices.
func BenchmarkAblationGHiCOO(b *testing.B) {
	x := benchTensor(b, "irrS")
	for mode := 0; mode < x.Order(); mode++ {
		b.Run(fmt.Sprintf("uncomp=%d", mode), func(b *testing.B) {
			var bytes int64
			for i := 0; i < b.N; i++ {
				g := hicoo.FromCOOExceptMode(x, mode, hicoo.DefaultBlockBits)
				bytes = g.StorageBytes()
			}
			b.ReportMetric(float64(bytes), "bytes")
		})
	}
}

// BenchmarkAblationMttkrpStrategy compares the Mttkrp parallelization
// strategies: atomics, privatization, HiCOO blocks, CSF root-mode.
func BenchmarkAblationMttkrpStrategy(b *testing.B) {
	x := benchTensor(b, "irrS")
	r := pasta.DefaultR
	opt := parallel.Options{Schedule: parallel.Dynamic}
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(pasta.GenerateSeeded(int64(n)))
	}
	p, err := pasta.PrepareMttkrp(x, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	atomicOpt := opt
	atomicOpt.Strategy = pasta.StrategyAtomic
	b.Run("coo-atomic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = p.ExecuteOMP(mats, atomicOpt)
		}
	})
	privOpt := opt
	privOpt.Strategy = pasta.StrategyPrivatized
	b.Run("coo-privatized", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = p.ExecuteOMP(mats, privOpt)
		}
	})
	b.Run("coo-adaptive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = p.ExecuteOMP(mats, opt)
		}
		b.ReportMetric(float64(p.LastStrategy), "strategy")
	})
	h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	hp, err := pasta.PrepareMttkrpHiCOO(h, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("hicoo-blocks", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_, _ = hp.ExecuteOMP(mats, opt)
		}
	})
	c, err := pasta.ToCSF(x, []int{0, 1, 2})
	if err != nil {
		b.Fatal(err)
	}
	cp, err := csf.PrepareMttkrp(c.Tree(), r)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("csf-root", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cp.ExecuteOMP(mats, opt); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bcsf-balanced", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := c.MttkrpRootBalanced(mats, opt, 0); err != nil {
				b.Fatal(err)
			}
		}
		st := c.ComputeTaskStats(0)
		b.ReportMetric(float64(st.Tasks), "tasks")
	})
}

// BenchmarkMultiGPUScaling runs the multi-device Mttkrp across 1-4
// simulated GPUs (§7's "multiple GPUs" extension).
func BenchmarkMultiGPUScaling(b *testing.B) {
	x := benchTensor(b, "regS")
	r := pasta.DefaultR
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(pasta.GenerateSeeded(int64(n)))
	}
	p, err := pasta.PrepareMttkrp(x, 0, r)
	if err != nil {
		b.Fatal(err)
	}
	for _, nd := range []int{1, 2, 4} {
		devs := make([]*pasta.Device, nd)
		for i := range devs {
			devs[i] = pasta.NewDevice("multi", 4)
		}
		b.Run(fmt.Sprintf("devices=%d", nd), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecuteMultiGPU(devs, mats); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblationSchedule compares OpenMP scheduling policies on the
// skewed-fiber Ttv workload.
func BenchmarkAblationSchedule(b *testing.B) {
	x := benchTensor(b, "deli")
	p, err := pasta.PrepareTtv(x, 1)
	if err != nil {
		b.Fatal(err)
	}
	v := tensor.RandomVector(int(x.Dims[1]), pasta.GenerateSeeded(4))
	for _, sched := range []parallel.Schedule{parallel.Static, parallel.Dynamic, parallel.Guided} {
		b.Run(sched.String(), func(b *testing.B) {
			opt := parallel.Options{Schedule: sched}
			for i := 0; i < b.N; i++ {
				_, _ = p.ExecuteOMP(v, opt)
			}
		})
	}
}

// BenchmarkAblationReordering measures how index reordering changes the
// Ttv gather locality and HiCOO block count (§3.2.1's reordering remark).
func BenchmarkAblationReordering(b *testing.B) {
	x := benchTensor(b, "deli")
	rng := pasta.GenerateSeeded(5)
	perms := map[string]*pasta.Reordering{
		"original":   pasta.ReorderIdentity(x.Dims),
		"random":     pasta.ReorderRandom(x.Dims, rng),
		"bydegree":   pasta.ReorderByDegree(x),
		"firsttouch": pasta.ReorderFirstTouch(x),
	}
	for _, name := range []string{"original", "random", "bydegree", "firsttouch"} {
		p := perms[name]
		y, err := p.Apply(x)
		if err != nil {
			b.Fatal(err)
		}
		h := hicoo.FromCOO(y, hicoo.DefaultBlockBits)
		tp, err := pasta.PrepareTtv(y, 1)
		if err != nil {
			b.Fatal(err)
		}
		v := p.ApplyToVector(tensor.RandomVector(int(x.Dims[1]), pasta.GenerateSeeded(6)), 1)
		b.Run(name, func(b *testing.B) {
			opt := parallel.Options{Schedule: parallel.Dynamic}
			for i := 0; i < b.N; i++ {
				if _, err := tp.ExecuteOMP(v, opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(h.NumBlocks()), "hicoo-blocks")
		})
	}
}

// BenchmarkAblationFCOOSegments compares the F-COO segmented Ttv against
// the thread-per-fiber COO Ttv on the simulated GPU across segment sizes.
func BenchmarkAblationFCOOSegments(b *testing.B) {
	x := benchTensor(b, "deli") // skewed fibers: the case F-COO targets
	d := pasta.NewDevice("fcoo-bench", 0)
	v := tensor.RandomVector(int(x.Dims[1]), pasta.GenerateSeeded(8))
	tp, err := pasta.PrepareTtv(x, 1)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("coo-thread-per-fiber", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := tp.ExecuteGPU(d, v); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, seg := range []int{64, 256, 1024} {
		f, err := pasta.ToFCOO(x, 1, seg)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("fcoo-seg=%d", seg), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := f.TtvGPU(d, v); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFormatsConversion times the format converters themselves.
func BenchmarkFormatsConversion(b *testing.B) {
	x := benchTensor(b, "regS")
	b.Run("COO->HiCOO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hicoo.FromCOO(x, hicoo.DefaultBlockBits)
		}
	})
	b.Run("COO->FCOO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pasta.ToFCOO(x, 2, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("COO->gHiCOO", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			hicoo.FromCOOExceptMode(x, 2, hicoo.DefaultBlockBits)
		}
	})
	b.Run("COO->CSF", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pasta.ToCSF(x, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}
