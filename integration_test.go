package pasta_test

import (
	"math"
	"testing"

	pasta "repro"
	"repro/internal/dataset"
	"repro/internal/tensor"
)

// TestAllDatasetEntriesThroughAllFormats materializes every Table 2/3
// entry at small scale and round-trips it through every format the suite
// implements, checking content equality — the whole-system structural
// invariant.
func TestAllDatasetEntriesThroughAllFormats(t *testing.T) {
	for _, e := range append(pasta.RealTensors(), pasta.SyntheticTensors()...) {
		x, err := pasta.Materialize(e, 1200, 11)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		h := pasta.ToHiCOO(x, pasta.DefaultBlockBits)
		if err := h.Validate(); err != nil {
			t.Fatalf("%s HiCOO: %v", e.ID, err)
		}
		if d := tensor.AbsDiff(x, h.ToCOO()); d != 0 {
			t.Fatalf("%s HiCOO roundtrip diff %v", e.ID, d)
		}
		g := pasta.ToGHiCOOExceptMode(x, x.Order()-1, pasta.DefaultBlockBits)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s gHiCOO: %v", e.ID, err)
		}
		if d := tensor.AbsDiff(x, g.ToCOO()); d != 0 {
			t.Fatalf("%s gHiCOO roundtrip diff %v", e.ID, d)
		}
		c, err := pasta.ToCSF(x, nil)
		if err != nil {
			t.Fatalf("%s CSF: %v", e.ID, err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("%s CSF validate: %v", e.ID, err)
		}
		if d := tensor.AbsDiff(x, c.ToCOO()); d != 0 {
			t.Fatalf("%s CSF roundtrip diff %v", e.ID, d)
		}
		f, err := pasta.ToFCOO(x, 0, 0)
		if err != nil {
			t.Fatalf("%s F-COO: %v", e.ID, err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("%s F-COO validate: %v", e.ID, err)
		}
	}
}

// TestDecompositionPipelineOnStandIn runs the three tensor methods
// end-to-end on a dataset stand-in and checks their fits are sane and
// ordered (more expressive models fit at least as well).
func TestDecompositionPipelineOnStandIn(t *testing.T) {
	e, err := dataset.ByID("nips4d")
	if err != nil {
		t.Fatal(err)
	}
	x, err := dataset.Materialize(e, 1500, 13)
	if err != nil {
		t.Fatal(err)
	}
	cp2, err := pasta.CPALS(x, 2, 15, 1e-6, 1, pasta.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	cp8, err := pasta.CPALS(x, 8, 15, 1e-6, 1, pasta.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	if cp2.Fit <= 0 || cp8.Fit <= 0 {
		t.Fatalf("CP fits must be positive: %v %v", cp2.Fit, cp8.Fit)
	}
	if cp8.Fit < cp2.Fit-0.02 {
		t.Fatalf("rank-8 fit %v noticeably below rank-2 fit %v", cp8.Fit, cp2.Fit)
	}
	nn, err := pasta.NNCP(x, 4, 25, 1e-6, 2, pasta.Dynamic())
	if err != nil {
		t.Fatal(err)
	}
	if nn.Fit <= 0 || nn.Fit > 1 {
		t.Fatalf("NNCP fit %v", nn.Fit)
	}
	pm, err := pasta.PowerMethod(x, 25, 1e-6, 3)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Lambda <= 0 {
		t.Fatal("power method found no component")
	}
}

// TestKernelChainConsistency contracts a tensor down to a scalar via two
// independent kernel routes and compares: Ttv chain versus Ttm with R=1
// then summation.
func TestKernelChainConsistency(t *testing.T) {
	rng := pasta.GenerateSeeded(17)
	x := pasta.RandomCOO([]pasta.Index{25, 20, 15}, 600, rng)
	v0 := pasta.RandomVector(25, rng)
	v1 := pasta.RandomVector(20, rng)
	v2 := pasta.RandomVector(15, rng)

	// Route 1: TtvChain to a vector in mode 0, then dot.
	y, err := pasta.TtvChain(x, []pasta.Vector{nil, v1, v2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dot pasta.Value
	for i := range y {
		dot += y[i] * v0[i]
	}
	want := float64(dot)

	// Route 2: Ttm with the vectors as R=1 matrices, summing the final
	// semi-sparse scalar field.
	m0 := pasta.NewMatrix(25, 1)
	copy(m0.Data, v0)
	s, err := pasta.Ttm(x, m0, 0)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pasta.TtvSemi(s, v1, 1)
	if err != nil {
		t.Fatal(err)
	}
	s3, err := pasta.TtvSemi(s2, v2, 1)
	if err != nil {
		t.Fatal(err)
	}
	var got float64
	for _, v := range s3.Vals {
		got += float64(v)
	}
	if math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
		t.Fatalf("routes disagree: %v vs %v", got, want)
	}
}

// TestVerifyStyleSweep is a compact in-process version of cmd/pastaverify:
// for a couple of generator classes, every implementation of Ttv and
// Mttkrp must agree.
func TestVerifyStyleSweep(t *testing.T) {
	rng := pasta.GenerateSeeded(19)
	tensors := map[string]*pasta.COO{}
	kr, err := pasta.Kronecker([]pasta.Index{512, 512, 512}, 3000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	tensors["kron"] = kr
	pl, err := pasta.PowerLaw(pasta.PowerLawConfig{
		Dims: []pasta.Index{4000, 4000, 20}, SparseModes: []int{0, 1}, NNZ: 3000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tensors["pl"] = pl

	dev := pasta.NewDevice("sweep", 4)
	for name, x := range tensors {
		v := pasta.RandomVector(int(x.Dim(0)), rng)
		p, err := pasta.PrepareTtv(x, 0)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := p.ExecuteSeq(v)
		if err != nil {
			t.Fatal(err)
		}
		refVals := append([]pasta.Value(nil), ref.Vals...)
		if _, err := p.ExecuteGPU(dev, v); err != nil {
			t.Fatal(err)
		}
		for i := range refVals {
			if p.Out.Vals[i] != refVals[i] {
				t.Fatalf("%s: GPU Ttv diverges at %d", name, i)
			}
		}
		fc, err := pasta.ToFCOO(x, 0, 128)
		if err != nil {
			t.Fatal(err)
		}
		fOut, err := fc.TtvGPU(dev, v)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.AbsDiff(fOut, ref); d > 1e-3 {
			t.Fatalf("%s: F-COO Ttv diff %v", name, d)
		}
	}
}
