package pasta_test

import (
	"math"
	"testing"

	pasta "repro"
	"repro/internal/algo"
	"repro/internal/dataset"
	"repro/internal/fcoo"
	"repro/internal/gen"
	"repro/internal/tensor"
)

// TestDecompositionPipelineOnStandIn runs CP-ALS at two ranks and the
// power method
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
	v0 := tensor.RandomVector(25, rng)
	v1 := tensor.RandomVector(20, rng)
	v2 := tensor.RandomVector(15, rng)

	// Route 1: TtvChain to a vector in mode 0, then dot.
	y, err := algo.TtvChain(x, []tensor.Vector{nil, v1, v2}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var dot pasta.Value
	for i := range y {
		dot += y[i] * v0[i]
	}
	want := float64(dot)

	// Route 2: Ttm with v0 as an R=1 matrix, then the semi-sparse result's
	// fibers weighted by v1 and v2 at their sparse coordinates.
	m0 := pasta.NewMatrix(25, 1)
	copy(m0.Data, v0)
	s, err := pasta.Ttm(x, m0, 0)
	if err != nil {
		t.Fatal(err)
	}
	vecs := []tensor.Vector{v0, v1, v2}
	var got float64
	for f := 0; f < s.NumFibers(); f++ {
		w := float64(s.FiberVals(f)[0])
		for i, n := range s.SparseModes() {
			w *= float64(vecs[n][s.Inds[i][f]])
		}
		got += w
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
	tensors := map[string]*tensor.COO{}
	kr, err := pasta.Kronecker([]pasta.Index{512, 512, 512}, 3000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	tensors["kron"] = kr
	pl, err := gen.PowerLaw(gen.PowerLawConfig{
		Dims: []pasta.Index{4000, 4000, 20}, SparseModes: []int{0, 1}, NNZ: 3000,
	}, rng)
	if err != nil {
		t.Fatal(err)
	}
	tensors["pl"] = pl

	dev := pasta.NewDevice("sweep", 4)
	for name, x := range tensors {
		v := tensor.RandomVector(int(x.Dim(0)), rng)
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
		fc, err := fcoo.FromCOO(x, 0, 128)
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
