package perfmodel

import (
	"math/rand"
	"testing"

	"repro/internal/gen"
	"repro/internal/platform"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// largeWorkload fabricates the statistics of a choa-scale tensor
// (27M non-zeros, 712K × 10K × 767) without generating it.
func largeWorkload() Workload {
	return Workload{
		Params: roofline.Params{Order: 3, M: 27e6, MF: 9e6, Nb: 2.5e6, R: 16, BlockSize: 128},
		Dims:   []int64{712000, 10000, 767}, Mode: 0,
		FiberImbalance: 40, BlockImbalance: 25, Collisions: 38,
	}
}

// smallWorkload fabricates a regS-scale tensor (1M non-zeros) whose Tew
// working set fits Bluesky's 19MB LLC.
func smallWorkload() Workload {
	return Workload{
		Params: roofline.Params{Order: 3, M: 1.1e6, MF: 6e5, Nb: 4e5, R: 16, BlockSize: 128},
		Dims:   []int64{65536, 65536, 65536}, Mode: 0,
		FiberImbalance: 12, BlockImbalance: 8, Collisions: 4,
	}
}

func TestPredictPositiveAndBounded(t *testing.T) {
	for _, p := range platform.All() {
		for _, k := range roofline.Kernels {
			for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
				for _, w := range []Workload{largeWorkload(), smallWorkload()} {
					b := Predict(p, k, f, w)
					if b.TimeSec <= 0 || b.GFLOPS <= 0 {
						t.Fatalf("%s/%v/%v: non-positive prediction %+v", p.Name, k, f, b)
					}
					if b.GFLOPS > p.PeakSPGFLOPS {
						t.Fatalf("%s/%v/%v: prediction above peak", p.Name, k, f)
					}
					if b.ImbalanceFactor < 1 {
						t.Fatalf("%s/%v/%v: imbalance < 1", p.Name, k, f)
					}
				}
			}
		}
	}
}

func TestObservation2SmallTensorsExceedRoofline(t *testing.T) {
	// Small synthetic tensors (≈1M nnz) fit Bluesky's LLC for Tew/Ts and
	// run above the DRAM Roofline; large real tensors do not.
	small, large := smallWorkload(), largeWorkload()
	for _, k := range []roofline.Kernel{roofline.Tew, roofline.Ts} {
		bs := Predict(&platform.Bluesky, k, roofline.COO, small)
		if bs.Efficiency <= 1 {
			t.Errorf("%v small: efficiency %v, want > 1 (cache-resident)", k, bs.Efficiency)
		}
		bl := Predict(&platform.Bluesky, k, roofline.COO, large)
		if bl.Efficiency > 1.05 {
			t.Errorf("%v large: efficiency %v, want <= ~1", k, bl.Efficiency)
		}
	}
}

func TestObservation3NUMAPenalty(t *testing.T) {
	// Four-socket Wingtip achieves lower efficiency than two-socket
	// Bluesky on the gather-heavy fiber kernels (paper: Ttv 31%→9%,
	// Ttm 64%→52%)…
	w := largeWorkload()
	for _, k := range []roofline.Kernel{roofline.Ttv, roofline.Ttm} {
		eb := Predict(&platform.Bluesky, k, roofline.COO, w).Efficiency
		ew := Predict(&platform.Wingtip, k, roofline.COO, w).Efficiency
		if ew >= eb {
			t.Errorf("%v: Wingtip efficiency %v >= Bluesky %v", k, ew, eb)
		}
	}
	// …while Mttkrp efficiency is slightly *higher* on Wingtip (paper:
	// 9% vs 6%, "the increment could come from better parallelism of
	// Wingtip with 56 cores") — the atomic term scales with cores.
	ebm := Predict(&platform.Bluesky, roofline.Mttkrp, roofline.COO, w).Efficiency
	ewm := Predict(&platform.Wingtip, roofline.Mttkrp, roofline.COO, w).Efficiency
	if ewm <= ebm {
		t.Errorf("Mttkrp: Wingtip efficiency %v <= Bluesky %v, paper reports the reverse", ewm, ebm)
	}
	// And the GPUs beat Wingtip on Mttkrp efficiency (Observation 3).
	ew := Predict(&platform.Wingtip, roofline.Mttkrp, roofline.COO, w).Efficiency
	for _, p := range []*platform.Platform{&platform.DGX1P, &platform.DGX1V} {
		if eg := Predict(p, roofline.Mttkrp, roofline.COO, w).Efficiency; eg <= ew {
			t.Errorf("%s Mttkrp efficiency %v <= Wingtip %v", p.Name, eg, ew)
		}
	}
}

func TestObservation4HiCOOvsCOO(t *testing.T) {
	w := largeWorkload()
	// CPU: HiCOO ≥ COO for Tew, Ts, Ttv.
	for _, k := range []roofline.Kernel{roofline.Tew, roofline.Ts, roofline.Ttv} {
		gc := Predict(&platform.Bluesky, k, roofline.COO, w).GFLOPS
		gh := Predict(&platform.Bluesky, k, roofline.HiCOO, w).GFLOPS
		if gh < gc {
			t.Errorf("CPU %v: HiCOO %v < COO %v", k, gh, gc)
		}
	}
	// GPU: HiCOO-Mttkrp below COO-Mttkrp (block imbalance + parallelism).
	for _, p := range []*platform.Platform{&platform.DGX1P, &platform.DGX1V} {
		gc := Predict(p, roofline.Mttkrp, roofline.COO, w).GFLOPS
		gh := Predict(p, roofline.Mttkrp, roofline.HiCOO, w).GFLOPS
		if gh >= gc {
			t.Errorf("%s: HiCOO-Mttkrp %v >= COO-Mttkrp %v", p.Name, gh, gc)
		}
	}
}

func TestMttkrpLeastEfficientOnCPU(t *testing.T) {
	// Figures 4-5: Mttkrp has by far the lowest efficiency of the five
	// kernels on the CPU platforms (atomic-bound).
	w := largeWorkload()
	em := Predict(&platform.Bluesky, roofline.Mttkrp, roofline.COO, w).Efficiency
	for _, k := range []roofline.Kernel{roofline.Tew, roofline.Ts, roofline.Ttv, roofline.Ttm} {
		if e := Predict(&platform.Bluesky, k, roofline.COO, w).Efficiency; e <= em {
			t.Errorf("%v efficiency %v <= Mttkrp %v", k, e, em)
		}
	}
	if em > 0.2 {
		t.Errorf("CPU Mttkrp efficiency %v, paper reports ~5-9%%", em)
	}
}

func TestVoltaAtomicsBeatPascal(t *testing.T) {
	// Observation 2: V100's improved atomics lift Mttkrp efficiency above
	// P100's (110% vs 40% for COO in the paper).
	w := largeWorkload()
	ep := Predict(&platform.DGX1P, roofline.Mttkrp, roofline.COO, w).Efficiency
	ev := Predict(&platform.DGX1V, roofline.Mttkrp, roofline.COO, w).Efficiency
	if ev <= ep {
		t.Fatalf("V100 Mttkrp efficiency %v <= P100 %v", ev, ep)
	}
}

func TestGPUsFasterThanCPUsInAbsoluteGFLOPS(t *testing.T) {
	// The GPUs' bandwidth advantage must show in the streaming kernels.
	w := largeWorkload()
	for _, k := range []roofline.Kernel{roofline.Tew, roofline.Ts} {
		gc := Predict(&platform.Bluesky, k, roofline.COO, w).GFLOPS
		gg := Predict(&platform.DGX1V, k, roofline.COO, w).GFLOPS
		if gg <= gc {
			t.Errorf("%v: V100 %v <= Bluesky %v", k, gg, gc)
		}
	}
}

func TestFromTensorMeasuresStats(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x, err := gen.PowerLaw(gen.PowerLawConfig{
		Dims:        []tensor.Index{5000, 5000, 30},
		SparseModes: []int{0, 1},
		NNZ:         4000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	w := FromTensorAllModes(x, 16, 7)[0]
	if w.M != int64(x.NNZ()) || w.Order != 3 || w.R != 16 || w.BlockSize != 128 {
		t.Fatalf("workload basics wrong: %+v", w)
	}
	if w.MF <= 0 || w.MF > w.M {
		t.Fatalf("MF = %d out of range", w.MF)
	}
	if w.Nb <= 0 || w.Nb > w.M {
		t.Fatalf("Nb = %d out of range", w.Nb)
	}
	if w.FiberImbalance < 1 || w.BlockImbalance < 1 || w.Collisions < 1 {
		t.Fatalf("skew stats wrong: %+v", w)
	}
	// Power-law mode 0 must show real collision skew.
	if w.Collisions < 1.2 {
		t.Fatalf("collisions %v too low for a power-law tensor", w.Collisions)
	}
	// Predictions from measured workloads behave.
	b := Predict(&platform.DGX1P, roofline.Ttv, roofline.COO, w)
	if b.TimeSec <= 0 || b.GFLOPS <= 0 {
		t.Fatalf("prediction invalid: %+v", b)
	}
}

func TestImbalanceBlend(t *testing.T) {
	// Many items per worker → factor near 1; few items → near raw skew.
	if f := blend(10, 1e7, 24); f > 1.01 {
		t.Fatalf("well-balanced blend = %v", f)
	}
	if f := blend(10, 24, 24); f < 5 {
		t.Fatalf("skewed blend = %v, want near raw imbalance", f)
	}
	if blend(0.5, 100, 10) != 1 || blend(2, 0, 10) != 1 {
		t.Fatal("degenerate blends should be 1")
	}
}

func TestEffectiveBandwidthInterpolation(t *testing.T) {
	p := &platform.Bluesky
	llc := float64(p.LLCBytes)
	if bw := effectiveBandwidth(p, llc/2); bw != p.ERTLLCGBs {
		t.Fatal("cache-resident should use LLC bandwidth")
	}
	if bw := effectiveBandwidth(p, llc*100); bw != p.ERTDRAMGBs {
		t.Fatal("streaming should use DRAM bandwidth")
	}
	mid := effectiveBandwidth(p, llc*2)
	if mid <= p.ERTDRAMGBs || mid >= p.ERTLLCGBs {
		t.Fatalf("interpolated bandwidth %v outside (DRAM, LLC)", mid)
	}
}
