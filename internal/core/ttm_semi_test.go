package core

import (
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// ttmSemiViaCOO is the reference: expand the semi-sparse tensor to COO,
// run the ordinary Ttm, and compare as coordinate maps.
func ttmSemiViaCOO(t *testing.T, x *tensor.SemiCOO, u *tensor.Matrix, mode int) map[string]float64 {
	t.Helper()
	coo := x.ToCOO()
	return refTtm(coo, u, mode)
}

func semiFromTtm(t *testing.T, seed int64, dims []tensor.Index, nnz, firstMode, r int) *tensor.SemiCOO {
	t.Helper()
	x := randTensor(seed, dims, nnz)
	u := tensor.NewMatrix(int(dims[firstMode]), r)
	u.Randomize(rand.New(rand.NewSource(seed + 1)))
	s, err := Ttm(x, u, firstMode)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestTtmSemiMatchesCOOPath(t *testing.T) {
	// Build a semi-sparse tensor (one dense mode) via Ttm, then contract a
	// second mode with TtmSemi and check against the COO-expanded path.
	s := semiFromTtm(t, 100, []tensor.Index{15, 18, 12}, 400, 1, 5)
	rng := rand.New(rand.NewSource(101))
	for _, mode := range []int{0, 2} {
		u := tensor.NewMatrix(int(s.Dims[mode]), 4)
		u.Randomize(rng)
		got, err := TtmSemi(s, u, mode)
		if err != nil {
			t.Fatal(err)
		}
		if err := got.Validate(); err != nil {
			t.Fatalf("mode %d output invalid: %v", mode, err)
		}
		compareMaps(t, semiCOOToF64Map(got), ttmSemiViaCOO(t, s, u, mode), "TtmSemi")
	}
}

func TestTtmSemiChainAllModes(t *testing.T) {
	// Contract every mode in sequence; after each step the result must
	// match the COO-expanded Ttm, and at the end no sparse modes remain.
	s := semiFromTtm(t, 102, []tensor.Index{10, 12, 8, 9}, 300, 0, 3)
	rng := rand.New(rand.NewSource(103))
	for mode := 1; mode < 4; mode++ {
		u := tensor.NewMatrix(int(s.Dims[mode]), 2+mode)
		u.Randomize(rng)
		want := ttmSemiViaCOO(t, s, u, mode)
		var err error
		s2, err := TtmSemi(s, u, mode)
		if err != nil {
			t.Fatal(err)
		}
		compareMaps(t, semiCOOToF64Map(s2), want, "TtmSemi chain")
		s = s2
	}
	if len(s.SparseModes()) != 0 {
		t.Fatalf("sparse modes remain: %v", s.SparseModes())
	}
	if s.NumFibers() != 1 {
		t.Fatalf("fully dense result has %d fibers", s.NumFibers())
	}
}

func TestTtmSemiErrors(t *testing.T) {
	s := semiFromTtm(t, 106, []tensor.Index{8, 8, 8}, 50, 1, 3)
	if _, err := PrepareTtmSemi(s, 1, 4); err == nil {
		t.Fatal("expected already-dense error")
	}
	if _, err := PrepareTtmSemi(s, 5, 4); err == nil {
		t.Fatal("expected mode range error")
	}
	if _, err := PrepareTtmSemi(s, 0, 0); err == nil {
		t.Fatal("expected R error")
	}
	p, err := PrepareTtmSemi(s, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	bad := tensor.NewMatrix(3, 4)
	if _, err := p.ExecuteSeq(bad); err == nil {
		t.Fatal("expected matrix shape error")
	}
}

func TestTtmSemiFlopCount(t *testing.T) {
	s := semiFromTtm(t, 107, []tensor.Index{8, 8, 8}, 50, 1, 3)
	p, err := PrepareTtmSemi(s, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.FlopCount() != 2*int64(len(s.Vals))*4 {
		t.Fatalf("FlopCount = %d", p.FlopCount())
	}
}

func TestTtmSemiGroupsFibers(t *testing.T) {
	// Two input fibers sharing their non-product sparse coordinates must
	// collapse into one output fiber.
	s := tensor.NewSemiCOO([]tensor.Index{4, 4, 3}, []int{2}, 2)
	f0 := s.AppendFiber([]tensor.Index{1, 0}) // (i=1, j=0)
	copy(s.FiberVals(f0), []tensor.Value{1, 2, 3})
	f1 := s.AppendFiber([]tensor.Index{1, 2}) // (i=1, j=2)
	copy(s.FiberVals(f1), []tensor.Value{4, 5, 6})
	u := tensor.NewMatrix(4, 2) // contract mode 1 (j)
	u.Set(0, 0, 1)
	u.Set(0, 1, 2)
	u.Set(2, 0, 10)
	u.Set(2, 1, 20)
	out, err := TtmSemi(s, u, 1)
	if err != nil {
		t.Fatal(err)
	}
	if out.NumFibers() != 1 {
		t.Fatalf("fibers = %d, want 1 (grouped)", out.NumFibers())
	}
	// Output dense modes are {1, 2} with sizes {2, 3}; layout (r, k).
	// out(r, k) = Σ_j x(1, j, k) U(j, r):
	// r=0: k-row = 1*[1,2,3] + 10*[4,5,6] = [41,52,63]
	// r=1: 2*[1,2,3] + 20*[4,5,6] = [82,104,126]
	want := []tensor.Value{41, 52, 63, 82, 104, 126}
	got := out.FiberVals(0)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("dense block = %v, want %v", got, want)
		}
	}
}
