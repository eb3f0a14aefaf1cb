package metrics

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/platform"
	"repro/internal/resilience"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

func quickConfig() Config {
	c := DefaultConfig()
	c.Runs = 1
	return c
}

func testTensor(seed int64) *tensor.COO {
	return tensor.RandomCOO([]tensor.Index{60, 50, 40}, 3000, rand.New(rand.NewSource(seed)))
}

func TestMeasureHostAllKernelsAndFormats(t *testing.T) {
	host := platform.Host()
	x := testTensor(1)
	cfg := quickConfig()
	for _, k := range roofline.Kernels {
		for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
			r, err := MeasureHost(&host, x, k, f, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", k, f, err)
			}
			if r.GFLOPS <= 0 || r.TimeSec <= 0 || r.Flops <= 0 {
				t.Fatalf("%v/%v: degenerate result %+v", k, f, r)
			}
			if r.Source != Measured || r.Platform != "host" {
				t.Fatalf("%v/%v: metadata wrong %+v", k, f, r)
			}
			if r.Roofline <= 0 || r.Efficiency <= 0 {
				t.Fatalf("%v/%v: roofline missing %+v", k, f, r)
			}
		}
	}
}

func TestMeasureFlopAccounting(t *testing.T) {
	host := platform.Host()
	x := testTensor(2)
	cfg := quickConfig()
	m := int64(x.NNZ())
	r, err := MeasureHost(&host, x, roofline.Tew, roofline.COO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flops != m {
		t.Fatalf("Tew flops %d, want M=%d", r.Flops, m)
	}
	r, err = MeasureHost(&host, x, roofline.Mttkrp, roofline.COO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r.Flops != 3*m*int64(cfg.R) {
		t.Fatalf("Mttkrp flops %d, want 3MR=%d", r.Flops, 3*m*int64(cfg.R))
	}
}

func TestModelAllPlatforms(t *testing.T) {
	x := testTensor(3)
	cfg := quickConfig()
	for _, p := range platform.All() {
		for _, k := range roofline.Kernels {
			for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
				r := ModelFromWorkloads(p, Workloads(x, cfg), k, f)
				if r.GFLOPS <= 0 || r.TimeSec <= 0 {
					t.Fatalf("%s/%v/%v: degenerate %+v", p.Name, k, f, r)
				}
				if r.Source != Modeled || r.Platform != p.Name {
					t.Fatalf("%s/%v/%v: metadata wrong", p.Name, k, f)
				}
				if r.GFLOPS > p.PeakSPGFLOPS {
					t.Fatalf("%s/%v/%v: above peak", p.Name, k, f)
				}
			}
		}
	}
}

func TestModelSmallTensorOverheadBound(t *testing.T) {
	// A 3000-nnz tensor moves ~24KB for Ts: on a GPU the kernel-launch
	// overhead dominates and the CPU (lower overhead) comes out ahead —
	// the size regime where GPUs lose, consistent with the figures'
	// small-tensor behavior.
	x := testTensor(4)
	cfg := quickConfig()
	rv := ModelFromWorkloads(&platform.DGX1V, Workloads(x, cfg), roofline.Ts, roofline.COO)
	if rv.TimeSec < 10e-6 {
		t.Fatalf("V100 small-tensor time %v below launch overhead", rv.TimeSec)
	}
	gb := ModelFromWorkloads(&platform.Bluesky, Workloads(x, cfg), roofline.Ts, roofline.COO).GFLOPS
	if gb <= rv.GFLOPS {
		t.Fatalf("overhead-bound GPU (%v) should lose to CPU (%v) at this size", rv.GFLOPS, gb)
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	c := DefaultConfig()
	if c.R != 16 {
		t.Fatalf("R = %d, want 16", c.R)
	}
	if 1<<c.BlockBits != 128 {
		t.Fatalf("block size = %d, want 128", 1<<c.BlockBits)
	}
	if c.Runs != 5 {
		t.Fatalf("runs = %d, want 5", c.Runs)
	}
}

// TestMeasureHostRecordsPerModeStrategies is the regression test for the
// strategy-overwrite bug: MeasureHost used to store only the last mode's
// reduction strategy, hiding per-mode differences from ablation output.
func TestMeasureHostRecordsPerModeStrategies(t *testing.T) {
	host := platform.Host()
	x := testTensor(6)
	cfg := quickConfig()
	for _, k := range []roofline.Kernel{roofline.Ttv, roofline.Ttm, roofline.Mttkrp} {
		for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
			r, err := MeasureHost(&host, x, k, f, cfg)
			if err != nil {
				t.Fatalf("%v/%v: %v", k, f, err)
			}
			if len(r.Strategies) != x.Order() {
				t.Fatalf("%v/%v: %d strategies recorded, want one per mode (%d): %v",
					k, f, len(r.Strategies), x.Order(), r.Strategies)
			}
			for n, s := range r.Strategies {
				if s == "" {
					t.Fatalf("%v/%v: mode %d strategy empty", k, f, n)
				}
			}
			if r.Strategy != joinStrategies(r.Strategies) {
				t.Fatalf("%v/%v: summary %q does not reflect %v", k, f, r.Strategy, r.Strategies)
			}
		}
	}
	// Non-reduction kernels record no strategies.
	r, err := MeasureHost(&host, x, roofline.Tew, roofline.COO, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Strategies) != 0 || r.Strategy != "" {
		t.Fatalf("Tew should record no strategies, got %q / %v", r.Strategy, r.Strategies)
	}
}

func TestJoinStrategies(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, ""},
		{[]string{"atomic"}, "atomic"},
		{[]string{"owner", "owner", "owner"}, "owner"},
		{[]string{"atomic", "privatized", "atomic"}, "atomic,privatized,atomic"},
	}
	for _, c := range cases {
		if got := joinStrategies(c.in); got != c.want {
			t.Errorf("joinStrategies(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSourceString(t *testing.T) {
	if Measured.String() != "measured" || Modeled.String() != "modeled" {
		t.Fatal("Source strings wrong")
	}
}

// TestMeasureHostRegistryFormats exercises the formats the registry
// wired into the harness beyond COO/HiCOO: CSF is measured on its OMP
// variant, fCOO (GPU-only) on the simulated device.
func TestMeasureHostRegistryFormats(t *testing.T) {
	host := platform.Host()
	x := testTensor(7)
	cfg := quickConfig()
	for _, c := range []struct {
		k roofline.Kernel
		f roofline.Format
	}{
		{roofline.Ttv, roofline.CSF},
		{roofline.Mttkrp, roofline.CSF},
		{roofline.Ttv, roofline.FCOO},
		{roofline.Mttkrp, roofline.FCOO},
	} {
		r, err := MeasureHost(&host, x, c.k, c.f, cfg)
		if err != nil {
			t.Fatalf("%v/%v: %v", c.k, c.f, err)
		}
		if r.GFLOPS <= 0 || r.TimeSec <= 0 || r.Flops <= 0 || r.Roofline <= 0 {
			t.Fatalf("%v/%v: degenerate result %+v", c.k, c.f, r)
		}
	}
}

// TestMeasureHostUnsupportedTyped pins the fixed unknown-format path: a
// (kernel, format) with no registered variant fails with the typed
// resilience taxonomy, not a bare fmt.Errorf, so pastabench outcome
// aggregation can classify it.
func TestMeasureHostUnsupportedTyped(t *testing.T) {
	host := platform.Host()
	x := testTensor(8)
	_, err := MeasureHost(&host, x, roofline.Tew, roofline.CSF, quickConfig())
	if !errors.Is(err, resilience.ErrUnsupported) {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
	var ke *resilience.KernelError
	if !errors.As(err, &ke) || ke.Label.Kernel != "Tew" || ke.Label.Format != "CSF" {
		t.Fatalf("err not a labeled KernelError: %v", err)
	}
}
