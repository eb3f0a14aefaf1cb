package main

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/csf"
	"repro/internal/dataset"
	"repro/internal/fcoo"
	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/perfmodel"
	"repro/internal/platform"
	"repro/internal/reorder"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// runAblations exercises the design choices DESIGN.md §6 calls out: HiCOO
// block size, gHiCOO compressed-mode choice, Mttkrp parallelization
// strategy (CSF root and balanced tasks included), OpenMP scheduling
// policy, GPU block imbalance, index reordering, multi-GPU scaling, and
// F-COO segment size. Host rows are the mean of the timed runs of
// metrics.Time.
func runAblations(o options) {
	header("Ablations")
	cfg := benchConfig(o)

	e, _ := dataset.ByID("irrS")
	x, err := dataset.Materialize(e, o.nnz, o.seed)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("workload: irrS stand-in, %d nnz\n", x.NNZ())

	// row times run through metrics' one timing loop and prints its mean,
	// or the kernel's error in its place.
	row := func(name string, flops int64, run func() error) {
		mean, _, err := metrics.Time("ablation/"+name, cfg.Runs, run)
		if err != nil {
			fmt.Printf("  %-40s error: %v\n", name, err)
			return
		}
		fmt.Printf("  %-40s %10.4fms %10.3f GFLOPS\n", name, mean*1e3, float64(flops)/mean/1e9)
	}

	// --- Block size B for HiCOO ------------------------------------------
	fmt.Println("\n(a) HiCOO block size (storage + modeled Bluesky HiCOO-Mttkrp):")
	fmt.Printf("%8s %12s %10s %14s %12s\n", "B", "bytes", "blocks", "mean nnz/blk", "GFLOPS(model)")
	for _, bits := range []uint8{4, 5, 6, 7, 8} {
		h := hicoo.FromCOO(x, bits)
		st := h.ComputeStats()
		c2 := cfg
		c2.BlockBits = bits
		ws := metrics.Workloads(x, c2)
		r := metrics.ModelFromWorkloads(&platform.Bluesky, ws, roofline.Mttkrp, roofline.HiCOO)
		fmt.Printf("%8d %12d %10d %14.2f %12.3f\n", 1<<bits, st.StorageBytes, st.NumBlocks, st.MeanNNZPerBlock, r.GFLOPS)
	}

	// --- gHiCOO compressed-mode choice ------------------------------------
	fmt.Println("\n(b) gHiCOO compressed-mode choice (storage for Ttv input, product mode uncompressed):")
	full := hicoo.FromCOO(x, cfg.BlockBits)
	fmt.Printf("%-28s %12d bytes\n", "HiCOO (all modes)", full.StorageBytes())
	for mode := 0; mode < x.Order(); mode++ {
		g := hicoo.FromCOOExceptMode(x, mode, cfg.BlockBits)
		fmt.Printf("gHiCOO (uncompressed mode %d) %12d bytes  (%d blocks)\n", mode, g.StorageBytes(), g.NumBlocks())
	}

	// --- Mttkrp parallelization strategy (host-measured) -------------------
	fmt.Println("\n(c) Mttkrp parallelization strategy (host wall-clock, mode 0):")
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), cfg.R)
		mats[n].Fill(0.5)
	}
	p, err := core.PrepareMttkrp(x, 0, cfg.R)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	hp, err := core.PrepareMttkrpHiCOO(full, 0, cfg.R)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	c, err := csf.FromCOO(x, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	cp, err := csf.PrepareMttkrp(c.Tree(), cfg.R)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	flops := p.FlopCount()
	atomicOpt := cfg.Sched
	atomicOpt.Strategy = parallel.Atomic
	privOpt := cfg.Sched
	privOpt.Strategy = parallel.Privatized
	row("sequential", flops, func() error { _, err := p.ExecuteSeq(mats); return err })
	row("nnz-parallel + atomics", flops, func() error { _, err := p.ExecuteOMP(mats, atomicOpt); return err })
	row("nnz-parallel + privatization", flops, func() error { _, err := p.ExecuteOMP(mats, privOpt); return err })
	// The zero-value (Auto) strategy is owner-computes: whole output rows
	// per worker, over a copy sorted by the output mode (built by the
	// untimed warm-up run).
	row("nnz-parallel owners (mode-sorted copy)", flops, func() error { _, err := p.ExecuteOMP(mats, cfg.Sched); return err })
	row("block-parallel HiCOO + atomics", flops, func() error { _, err := hp.ExecuteOMP(mats, atomicOpt); return err })
	row("block-parallel HiCOO owners (block-rows)", flops, func() error { _, err := hp.ExecuteOMP(mats, cfg.Sched); return err })
	row("CSF root subtrees", flops, func() error { _, err := cp.ExecuteOMP(mats, cfg.Sched); return err })
	row(fmt.Sprintf("CSF root, %d balanced tasks", c.ComputeTaskStats(0).Tasks), flops,
		func() error { _, err := c.MttkrpRootBalanced(mats, cfg.Sched, 0); return err })

	// --- Scheduling policy for skewed fibers (host-measured Ttv) -----------
	fmt.Println("\n(d) OpenMP scheduling policy for Ttv on skewed fibers (host wall-clock, mode 0):")
	tp, err := core.PrepareTtv(x, 0)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fs := tensor.ComputeFiberStats(x, 0)
	fmt.Printf("  fiber imbalance max/mean = %.1f over %d fibers\n", fs.Imbalance, fs.NumFibers)
	v := tensor.NewVector(int(x.Dims[0]))
	for i := range v {
		v[i] = 1
	}
	for _, sched := range []parallel.Schedule{parallel.Static, parallel.Dynamic, parallel.Guided} {
		opt := parallel.Options{Schedule: sched}
		row(fmt.Sprintf("schedule(%s)", sched), tp.FlopCount(), func() error { _, err := tp.ExecuteOMP(v, opt); return err })
	}

	// --- Modeled GPU block-imbalance sensitivity ---------------------------
	fmt.Println("\n(e) Modeled HiCOO-Mttkrp GPU sensitivity to block imbalance (DGX-1P):")
	ws := metrics.Workloads(x, cfg)
	for _, imb := range []float64{1, 4, 16, 64} {
		w2 := make([]perfmodel.Workload, len(ws))
		copy(w2, ws)
		for i := range w2 {
			w2[i].BlockImbalance = imb
		}
		r := metrics.ModelFromWorkloads(&platform.DGX1P, w2, roofline.Mttkrp, roofline.HiCOO)
		fmt.Printf("  block imbalance %5.0fx -> %8.3f GFLOPS\n", imb, r.GFLOPS)
	}

	// --- Index reordering (§3.2.1) -----------------------------------------
	fmt.Println("\n(f) Index reordering: HiCOO blocks and host Ttv (mode 0):")
	rng := rand.New(rand.NewSource(o.seed))
	for _, re := range []struct {
		name string
		perm *reorder.Perm
	}{
		{"original", reorder.Identity(x.Dims)},
		{"random", reorder.Random(x.Dims, rng)},
		{"by degree", reorder.ByDegree(x)},
		{"first touch", reorder.FirstTouch(x)},
	} {
		y, err := re.perm.Apply(x)
		if err != nil {
			fmt.Printf("  %-36s error: %v\n", re.name, err)
			continue
		}
		yp, err := core.PrepareTtv(y, 0)
		if err != nil {
			fmt.Printf("  %-36s error: %v\n", re.name, err)
			continue
		}
		name := fmt.Sprintf("%s (%d blocks)", re.name, hicoo.FromCOO(y, cfg.BlockBits).NumBlocks())
		row(name, yp.FlopCount(), func() error { _, err := yp.ExecuteOMP(v, cfg.Sched); return err })
	}

	// --- Multi-GPU scaling (§7) --------------------------------------------
	fmt.Println("\n(g) Multi-GPU Mttkrp across simulated devices (mode 0):")
	for _, nd := range []int{1, 2, 4} {
		devs := make([]*gpusim.Device, nd)
		for i := range devs {
			devs[i] = gpusim.NewDevice("multi", 4)
		}
		row(fmt.Sprintf("%d device(s)", nd), flops, func() error { _, err := p.ExecuteMultiGPU(devs, mats); return err })
	}

	// --- F-COO segment size vs thread-per-fiber GPU Ttv -------------------
	fmt.Println("\n(h) F-COO segment size vs thread-per-fiber COO Ttv (simulated GPU, mode 0):")
	dev := gpusim.NewDevice("fcoo", 0)
	row("COO thread-per-fiber", tp.FlopCount(), func() error { _, err := tp.ExecuteGPU(dev, v); return err })
	for _, seg := range []int{64, 256, 1024} {
		name := fmt.Sprintf("F-COO segment %d", seg)
		f, err := fcoo.FromCOO(x, 0, seg)
		if err != nil {
			fmt.Printf("  %-36s error: %v\n", name, err)
			continue
		}
		row(name, tp.FlopCount(), func() error { _, err := f.TtvGPU(dev, v); return err })
	}
}
