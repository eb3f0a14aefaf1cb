package roofline

import (
	"math"
	"testing"

	"repro/internal/platform"
)

func TestTable1ThirdOrderFormulas(t *testing.T) {
	// Substituting the paper's third-order cubical assumptions must
	// reproduce the Table 1 entries exactly.
	p := Params{Order: 3, M: 1000, MF: 100, Nb: 10, R: 16, BlockSize: 128}

	if w := Work(Tew, p); w != p.M {
		t.Fatalf("Tew work = %d, want M", w)
	}
	if w := Work(Ts, p); w != p.M {
		t.Fatalf("Ts work = %d, want M", w)
	}
	if w := Work(Ttv, p); w != 2*p.M {
		t.Fatalf("Ttv work = %d, want 2M", w)
	}
	if w := Work(Ttm, p); w != 2*p.M*p.R {
		t.Fatalf("Ttm work = %d, want 2MR", w)
	}
	if w := Work(Mttkrp, p); w != 3*p.M*p.R {
		t.Fatalf("Mttkrp work = %d, want 3MR", w)
	}

	if b := Bytes(Tew, COO, p); b != 12*p.M {
		t.Fatalf("Tew bytes = %d, want 12M", b)
	}
	if b := Bytes(Tew, HiCOO, p); b != 12*p.M {
		t.Fatalf("Tew HiCOO bytes = %d, want 12M", b)
	}
	if b := Bytes(Ts, COO, p); b != 8*p.M {
		t.Fatalf("Ts bytes = %d, want 8M", b)
	}
	if b := Bytes(Ttv, COO, p); b != 12*p.M+12*p.MF {
		t.Fatalf("Ttv bytes = %d, want 12M+12MF", b)
	}
	if b := Bytes(Ttm, COO, p); b != 4*p.M*p.R+4*p.MF*p.R+8*p.M+8*p.MF {
		t.Fatalf("Ttm bytes = %d, want 4MR+4MFR+8M+8MF", b)
	}
	if b := Bytes(Mttkrp, COO, p); b != 12*p.M*p.R+16*p.M {
		t.Fatalf("Mttkrp COO bytes = %d, want 12MR+16M", b)
	}
	// HiCOO Mttkrp: 12R·min(nb·B, M) + 7M + 20nb with nb·B=1280 > M=1000.
	want := 12*p.R*p.M + 7*p.M + 20*p.Nb
	if b := Bytes(Mttkrp, HiCOO, p); b != want {
		t.Fatalf("Mttkrp HiCOO bytes = %d, want %d", b, want)
	}
	// Capped branch: nb·B < M.
	p2 := p
	p2.Nb = 2
	want2 := 12*p2.R*(p2.Nb*p2.BlockSize) + 7*p2.M + 20*p2.Nb
	if b := Bytes(Mttkrp, HiCOO, p2); b != want2 {
		t.Fatalf("Mttkrp HiCOO capped bytes = %d, want %d", b, want2)
	}
}

func TestHiCOOMttkrpBytesSmaller(t *testing.T) {
	// Table 1's point: HiCOO-Mttkrp moves less memory than COO-Mttkrp for
	// blocked tensors.
	p := Params{Order: 3, M: 1 << 20, MF: 1 << 16, Nb: 1 << 12, R: 16, BlockSize: 128}
	if Bytes(Mttkrp, HiCOO, p) >= Bytes(Mttkrp, COO, p) {
		t.Fatal("HiCOO Mttkrp traffic should be below COO")
	}
}

func TestAsymptoticOI(t *testing.T) {
	// OI for a large cubical third-order tensor approaches Table 1.
	p := Params{Order: 3, M: 1 << 24, MF: 1 << 16, Nb: 1 << 12, R: 16, BlockSize: 128}
	cases := []struct {
		k    Kernel
		want float64
		tol  float64
	}{
		{Tew, 1.0 / 12, 1e-9},
		{Ts, 1.0 / 8, 1e-9},
		{Ttv, 1.0 / 6, 0.01},
		// The paper's "~1/2" drops the 8M+8MF input term, which at R=16
		// still contributes ~11% of traffic: the exact value is 0.444.
		{Ttm, 1.0 / 2, 0.06},
		{Mttkrp, 1.0 / 4, 0.05},
	}
	for _, c := range cases {
		got := OI(c.k, COO, p)
		if math.Abs(got-c.want) > c.tol {
			t.Errorf("%v OI = %v, want ≈ %v", c.k, got, c.want)
		}
		if AsymptoticOI(c.k) != c.want {
			t.Errorf("%v asymptotic OI wrong", c.k)
		}
	}
}

func TestKernelStrings(t *testing.T) {
	names := map[Kernel]string{Tew: "Tew", Ts: "Ts", Ttv: "Ttv", Ttm: "Ttm", Mttkrp: "Mttkrp"}
	for k, want := range names {
		if k.String() != want {
			t.Errorf("Kernel %d string %q", int(k), k.String())
		}
	}
	if COO.String() != "COO" || HiCOO.String() != "HiCOO" {
		t.Fatal("Format strings wrong")
	}
	if Kernel(99).String() != "unknown" {
		t.Fatal("unknown kernel string")
	}
}

func TestAttainable(t *testing.T) {
	p := &platform.Bluesky
	// Memory-bound region: OI × BW.
	if got := Attainable(p, 0.1); math.Abs(got-0.1*p.ERTDRAMGBs) > 1e-9 {
		t.Fatalf("Attainable(0.1) = %v", got)
	}
	// Compute-bound region: clamped at peak.
	if got := Attainable(p, 1e6); got != p.PeakSPGFLOPS {
		t.Fatalf("Attainable(huge) = %v, want peak", got)
	}
	if AttainableLLC(p, 0.1) <= Attainable(p, 0.1) {
		t.Fatal("LLC roof must exceed DRAM roof in the memory-bound region")
	}
}

func TestRidgeOI(t *testing.T) {
	p := &platform.DGX1V
	ridge := RidgeOI(p)
	if math.Abs(Attainable(p, ridge)-p.PeakSPGFLOPS) > 1e-6 {
		t.Fatal("ridge point must reach peak")
	}
	if Attainable(p, ridge/2) >= p.PeakSPGFLOPS {
		t.Fatal("below ridge must be memory bound")
	}
}

func TestBuildCurve(t *testing.T) {
	c := BuildCurve(&platform.DGX1P, 0.01, 100, 50)
	if len(c.DRAM) != 50 || len(c.LLC) != 50 || len(c.Theory) != 50 {
		t.Fatal("curve lengths wrong")
	}
	// Monotone non-decreasing in OI.
	for i := 1; i < len(c.DRAM); i++ {
		if c.DRAM[i].GFLOPS < c.DRAM[i-1].GFLOPS {
			t.Fatal("DRAM roof not monotone")
		}
	}
	// ERT roof never above theoretical roof.
	for i := range c.DRAM {
		if c.DRAM[i].GFLOPS > c.Theory[i].GFLOPS+1e-9 {
			t.Fatal("ERT roof above theoretical roof")
		}
	}
	if s := FormatCurve(c); len(s) == 0 {
		t.Fatal("FormatCurve empty")
	}
}

func TestKernelMarks(t *testing.T) {
	for _, p := range platform.All() {
		marks := KernelMarks(p)
		if len(marks) != 5 {
			t.Fatalf("%s: %d marks", p.Name, len(marks))
		}
		// All five kernels are memory bound on every platform (§5.2).
		for name, pt := range marks {
			if pt.GFLOPS >= p.PeakSPGFLOPS {
				t.Errorf("%s/%s marked compute-bound", p.Name, name)
			}
		}
		// Ttm has the highest OI, Tew the lowest (Table 1 ordering).
		if marks["Ttm"].GFLOPS <= marks["Mttkrp"].GFLOPS ||
			marks["Mttkrp"].GFLOPS <= marks["Ttv"].GFLOPS ||
			marks["Ttv"].GFLOPS <= marks["Ts"].GFLOPS ||
			marks["Ts"].GFLOPS <= marks["Tew"].GFLOPS {
			t.Errorf("%s: kernel OI ordering violated", p.Name)
		}
	}
}

func TestEfficiency(t *testing.T) {
	p := &platform.Bluesky
	oi := 0.25
	bound := Attainable(p, oi)
	if e := Efficiency(p, oi, bound); math.Abs(e-1) > 1e-9 {
		t.Fatalf("efficiency at bound = %v, want 1", e)
	}
	if e := Efficiency(p, oi, bound/2); math.Abs(e-0.5) > 1e-9 {
		t.Fatalf("efficiency = %v, want 0.5", e)
	}
}

func TestRunERTQuick(t *testing.T) {
	r := RunERT(true)
	if r.DRAMGBs <= 0 || r.LLCGBs <= 0 || r.PeakGFLOPS <= 0 {
		t.Fatalf("ERT produced non-positive results: %+v", r)
	}
	h := MeasureHost(true)
	if h.ERTDRAMGBs != r.DRAMGBs && h.ERTDRAMGBs <= 0 {
		t.Fatal("MeasureHost did not record bandwidth")
	}
	if h.PeakSPGFLOPS <= 0 {
		t.Fatal("MeasureHost did not record peak")
	}
}

func TestPlatformTable4Values(t *testing.T) {
	// Spot-check Table 4 entries and the GPU/CPU advantage ratios the
	// paper quotes (peak 4-12×, bandwidth 3-7× at the extremes with
	// obtainable values in between).
	if platform.Bluesky.PeakSPGFLOPS != 1000 || platform.Wingtip.PeakSPGFLOPS != 2000 {
		t.Fatal("CPU peaks wrong")
	}
	if platform.DGX1P.PeakSPGFLOPS != 10600 || platform.DGX1V.PeakSPGFLOPS != 14900 {
		t.Fatal("GPU peaks wrong")
	}
	if platform.DGX1V.MemBWGBs/platform.Bluesky.MemBWGBs < 3 {
		t.Fatal("GPU bandwidth advantage missing")
	}
	for _, p := range platform.All() {
		if p.ERTDRAMGBs >= p.MemBWGBs {
			t.Errorf("%s: obtainable BW above theoretical", p.Name)
		}
		if e := p.ERTDRAMGBs / p.MemBWGBs; e < 0.6 || e > 0.95 {
			t.Errorf("%s: ERT fraction %v outside typical range", p.Name, e)
		}
	}
	if _, err := platform.ByName("Bluesky"); err != nil {
		t.Fatal(err)
	}
	if _, err := platform.ByName("host"); err != nil {
		t.Fatal(err)
	}
	if _, err := platform.ByName("nope"); err == nil {
		t.Fatal("expected unknown-platform error")
	}
	if platform.CPU.String() != "CPU" || platform.GPU.String() != "GPU" {
		t.Fatal("Kind strings wrong")
	}
}
