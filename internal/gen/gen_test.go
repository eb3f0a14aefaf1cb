package gen

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func TestDefaultInitiator(t *testing.T) {
	for order := 2; order <= 4; order++ {
		in := DefaultInitiator(order)
		if err := in.Validate(); err != nil {
			t.Fatalf("order %d: %v", order, err)
		}
		if len(in.Probs) != 1<<order {
			t.Fatalf("order %d: %d cells", order, len(in.Probs))
		}
		// Corner cell (all zeros) must be the heaviest.
		for c := 1; c < len(in.Probs); c++ {
			if in.Probs[c] >= in.Probs[0] {
				t.Fatalf("order %d: cell %d prob %v >= corner %v", order, c, in.Probs[c], in.Probs[0])
			}
		}
	}
}

func TestInitiatorValidateErrors(t *testing.T) {
	bad := []*Initiator{
		{Dims: nil, Probs: nil},
		{Dims: []int{1, 2}, Probs: []float64{0.5, 0.5}},
		{Dims: []int{2}, Probs: []float64{0.5}},
		{Dims: []int{2}, Probs: []float64{1.5, -0.5}},
		{Dims: []int{2}, Probs: []float64{0.3, 0.3}},
	}
	for i, in := range bad {
		if err := in.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestKroneckerBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dims := []tensor.Index{1000, 1000, 1000}
	x, err := Kronecker(dims, 5000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != 5000 {
		t.Fatalf("nnz = %d, want 5000", x.NNZ())
	}
	// No duplicates (Bernoulli realization).
	d := x.Clone()
	d.Dedup()
	if d.NNZ() != x.NNZ() {
		t.Fatal("duplicate coordinates present")
	}
}

func TestKroneckerNonPowerDims(t *testing.T) {
	// Dims that are not powers of 2 exercise the strip-and-redraw path.
	rng := rand.New(rand.NewSource(2))
	dims := []tensor.Index{700, 300, 90}
	x, err := Kronecker(dims, 2000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	for n := range dims {
		for _, i := range x.Inds[n] {
			if i >= dims[n] {
				t.Fatalf("mode %d index %d out of range", n, i)
			}
		}
	}
}

func TestKroneckerIsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	x, err := Kronecker([]tensor.Index{4096, 4096, 4096}, 20000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	// The corner bias must produce a heavy-tailed per-index distribution.
	if skew := DegreeSkew(x, 0); skew < 5 {
		t.Fatalf("Kronecker mode-0 skew = %v, want >= 5 (power-law-like)", skew)
	}
}

func TestKroneckerErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	if _, err := Kronecker([]tensor.Index{8, 8}, -1, nil, rng); err == nil {
		t.Fatal("expected negative-nnz error")
	}
	badInit := &Initiator{Dims: []int{2}, Probs: []float64{1}}
	if _, err := Kronecker([]tensor.Index{8, 8}, 10, badInit, rng); err == nil {
		t.Fatal("expected order-mismatch error")
	}
}

func TestKroneckerOrder4(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x, err := Kronecker([]tensor.Index{128, 128, 128, 128}, 3000, nil, rng)
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 4 || x.NNZ() != 3000 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
}

func TestPowerLawBasics(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cfg := PowerLawConfig{
		Dims:        []tensor.Index{50000, 50000, 76},
		SparseModes: []int{0, 1},
		NNZ:         8000,
	}
	x, err := PowerLaw(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Validate(); err != nil {
		t.Fatal(err)
	}
	if x.NNZ() != 8000 {
		t.Fatalf("nnz = %d, want 8000", x.NNZ())
	}
	// Sparse modes are heavily skewed, the dense mode is not.
	if s := DegreeSkew(x, 0); s < 10 {
		t.Fatalf("sparse mode skew = %v, want >= 10", s)
	}
	if s := DegreeSkew(x, 2); s > 3 {
		t.Fatalf("dense mode skew = %v, want <= 3 (uniform)", s)
	}
}

func TestPowerLawDenseModeFullyCovered(t *testing.T) {
	// "one mode completely dense": with nnz >> dim every index appears.
	rng := rand.New(rand.NewSource(7))
	cfg := PowerLawConfig{
		Dims:        []tensor.Index{10000, 10000, 20},
		SparseModes: []int{0, 1},
		NNZ:         5000,
	}
	x, err := PowerLaw(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if d := tensor.DistinctModeIndices(x, 2); d != 20 {
		t.Fatalf("dense mode covers %d/20 indices", d)
	}
}

func TestPowerLawErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []PowerLawConfig{
		{},
		{Dims: []tensor.Index{10}, NNZ: -1},
		{Dims: []tensor.Index{10, 10}, SparseModes: []int{5}, NNZ: 5},
		{Dims: []tensor.Index{10, 10}, SparseModes: []int{0}, Exponent: 0.5, NNZ: 5},
		{Dims: []tensor.Index{1, 10}, SparseModes: []int{0}, NNZ: 5},
	}
	for i, cfg := range cases {
		if _, err := PowerLaw(cfg, rng); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestPowerLawOrder4TwoDense(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	cfg := PowerLawConfig{
		Dims:        []tensor.Index{20000, 20000, 30, 50},
		SparseModes: []int{0, 1},
		NNZ:         4000,
	}
	x, err := PowerLaw(cfg, rng)
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 4 || x.NNZ() != 4000 {
		t.Fatalf("order=%d nnz=%d", x.Order(), x.NNZ())
	}
}

func TestGeneratorsReproducible(t *testing.T) {
	// Same seed, same tensor — the paper's reproducibility requirement.
	a, _ := Kronecker([]tensor.Index{512, 512, 512}, 1000, nil, rand.New(rand.NewSource(42)))
	b, _ := Kronecker([]tensor.Index{512, 512, 512}, 1000, nil, rand.New(rand.NewSource(42)))
	if tensor.AbsDiff(a, b) != 0 {
		t.Fatal("Kronecker not reproducible for fixed seed")
	}
	cfg := PowerLawConfig{Dims: []tensor.Index{1000, 1000, 16}, SparseModes: []int{0, 1}, NNZ: 500}
	c, _ := PowerLaw(cfg, rand.New(rand.NewSource(43)))
	d, _ := PowerLaw(cfg, rand.New(rand.NewSource(43)))
	if tensor.AbsDiff(c, d) != 0 {
		t.Fatal("PowerLaw not reproducible for fixed seed")
	}
}

func TestGeneratorsProperty(t *testing.T) {
	f := func(seed int64, nnzRaw uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		nnz := int(nnzRaw)%500 + 1
		x, err := Kronecker([]tensor.Index{256, 256, 256}, nnz, nil, rng)
		if err != nil || x.Validate() != nil || x.NNZ() != nnz {
			return false
		}
		y, err := PowerLaw(PowerLawConfig{
			Dims:        []tensor.Index{512, 512, 8},
			SparseModes: []int{0, 1},
			NNZ:         nnz,
		}, rng)
		return err == nil && y.Validate() == nil && y.NNZ() == nnz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
