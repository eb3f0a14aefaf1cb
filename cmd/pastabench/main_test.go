package main

import (
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/perfmodel"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

func TestDimsString(t *testing.T) {
	if got := dimsString([]tensor.Index{4, 5, 6}); got != "4x5x6" {
		t.Fatalf("dimsString = %q", got)
	}
	if got := dimsString64([]int64{165000, 11000, 2}); got != "165K x11K x2" && got != "165Kx11Kx2" {
		// Exact formatting may include no spaces; accept the canonical one.
		if !strings.Contains(got, "165K") || !strings.Contains(got, "11K") {
			t.Fatalf("dimsString64 = %q", got)
		}
	}
	if got := dimsString64([]int64{23e6}); !strings.Contains(got, "23.0M") {
		t.Fatalf("dimsString64 millions = %q", got)
	}
}

func TestBenchConfig(t *testing.T) {
	o := options{nnz: 100, runs: 3, r: 8, blockBits: 5}
	cfg := benchConfig(o)
	if cfg.R != 8 || cfg.Runs != 3 || cfg.BlockBits != 5 {
		t.Fatalf("cfg = %+v", cfg)
	}
}

func TestScaleWorkloads(t *testing.T) {
	e, err := dataset.ByID("choa")
	if err != nil {
		t.Fatal(err)
	}
	x, err := dataset.Materialize(e, 2000, 1)
	if err != nil {
		t.Fatal(err)
	}
	ws := metrics.Workloads(x, metrics.DefaultConfig())

	off := scaleWorkloads(ws, e, options{paperScale: false})
	if off[0].M != int64(x.NNZ()) {
		t.Fatal("paperScale=false must not scale")
	}
	on := scaleWorkloads(ws, e, options{paperScale: true})
	if on[0].M != e.PaperNNZ {
		t.Fatalf("scaled M = %d, want %d", on[0].M, e.PaperNNZ)
	}
	if on[0].Dims[0] != e.PaperDims[0] {
		t.Fatalf("scaled dims = %v", on[0].Dims)
	}
	// Derived counts scale proportionally and stay bounded by M.
	ratioBefore := float64(ws[0].MF) / float64(ws[0].M)
	ratioAfter := float64(on[0].MF) / float64(on[0].M)
	if ratioAfter > 1.01*ratioBefore+0.01 {
		t.Fatalf("MF ratio grew: %v -> %v", ratioBefore, ratioAfter)
	}
	if on[0].MF > on[0].M || on[0].Nb > on[0].M {
		t.Fatal("scaled counts exceed M")
	}
	// Skew statistics carry over unchanged.
	if on[0].FiberImbalance != ws[0].FiberImbalance || on[0].Collisions != ws[0].Collisions {
		t.Fatal("skew statistics should be preserved")
	}
}

func TestScaleToDegenerate(t *testing.T) {
	var w perfmodel.Workload
	out := w.ScaleTo(100, []int64{5})
	if out.M != w.M {
		t.Fatal("zero-M workload should not scale")
	}
	w2 := perfmodel.Workload{Params: roofline.Params{M: 10, MF: 5, Nb: 2}, Dims: []int64{4, 4}}
	out2 := w2.ScaleTo(1000, []int64{400, 400})
	if out2.M != 1000 || out2.MF != 500 || out2.Nb != 200 {
		t.Fatalf("scaled = %+v", out2)
	}
	// Mismatched dims arity leaves dims unchanged.
	out3 := w2.ScaleTo(1000, []int64{400})
	if len(out3.Dims) != 2 || out3.Dims[0] != 4 {
		t.Fatalf("dims should be preserved on arity mismatch: %v", out3.Dims)
	}
}
