package algo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// ReconstructAt evaluates the CP model X̂ at one coordinate.
func (res *CPResult) ReconstructAt(idx []tensor.Index) float64 {
	rank := len(res.Lambda)
	var s float64
	for r := 0; r < rank; r++ {
		p := res.Lambda[r]
		for n, f := range res.Factors {
			p *= float64(f.At(int(idx[n]), r))
		}
		s += p
	}
	return s
}

// lowRankTensor builds a dense tensor (as COO) from known rank-R factors
// so decomposition quality is verifiable.
func lowRankTensor(dims []int, rank int, seed int64) (*tensor.COO, []*tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	mats := make([]*tensor.Matrix, len(dims))
	for n, d := range dims {
		mats[n] = tensor.NewMatrix(d, rank)
		mats[n].Randomize(rng)
	}
	td := make([]tensor.Index, len(dims))
	for n, d := range dims {
		td[n] = tensor.Index(d)
	}
	x := tensor.NewCOO(td, 0)
	idx := make([]tensor.Index, len(dims))
	var fill func(n int)
	fill = func(n int) {
		if n == len(dims) {
			var v float64
			for r := 0; r < rank; r++ {
				p := 1.0
				for m := range dims {
					p *= float64(mats[m].At(int(idx[m]), r))
				}
				v += p
			}
			x.Append(idx, tensor.Value(v))
			return
		}
		for i := 0; i < dims[n]; i++ {
			idx[n] = tensor.Index(i)
			fill(n + 1)
		}
	}
	fill(0)
	return x, mats
}

// invertOf runs invertSPD with fresh buffers.
func invertOf(a []float64, n int) ([]float64, error) {
	inv := make([]float64, n*n)
	return inv, invertSPD(a, make([]float64, n*n), inv, n)
}

func TestGaussJordanInverse(t *testing.T) {
	a := []float64{4, 1, 0, 1, 3, 1, 0, 1, 2}
	inv, err := invertOf(a, 3)
	if err != nil {
		t.Fatal(err)
	}
	// A · A⁻¹ = I.
	for i := 0; i < 3; i++ {
		for j := 0; j < 3; j++ {
			var s float64
			for k := 0; k < 3; k++ {
				s += a[i*3+k] * inv[k*3+j]
			}
			want := 0.0
			if i == j {
				want = 1
			}
			if math.Abs(s-want) > 1e-10 {
				t.Fatalf("(A·A⁻¹)[%d][%d] = %v", i, j, s)
			}
		}
	}
}

func TestInvertSingularUsesRidge(t *testing.T) {
	// Rank-1 matrix is singular; the ridge fallback must still succeed.
	a := []float64{1, 1, 1, 1}
	if _, err := invertOf(a, 2); err != nil {
		t.Fatalf("ridge fallback failed: %v", err)
	}
}

func TestSolveSymmetric(t *testing.T) {
	a := []float64{2, 0, 0, 3}
	b := []float64{4, 9, 2, 3} // rows (4,9) and (2,3)
	if err := solveSymmetric(a, 2, b, 2); err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 3, 1, 1}
	for i := range want {
		if math.Abs(b[i]-want[i]) > 1e-12 {
			t.Fatalf("solve result %v, want %v", b, want)
		}
	}
}

func TestCPALSRecoversLowRank(t *testing.T) {
	x, _ := lowRankTensor([]int{8, 9, 7}, 2, 11)
	res, err := CPALS(x, 2, 200, 1e-8, 3, parallel.Options{Schedule: parallel.Static})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.999 {
		t.Fatalf("CP-ALS fit %v on an exactly rank-2 tensor (iters=%d)", res.Fit, res.Iters)
	}
	// Reconstruction matches at sampled coordinates.
	for _, c := range [][]tensor.Index{{0, 0, 0}, {3, 4, 5}, {7, 8, 6}} {
		want, _ := x.At(c...)
		got := res.ReconstructAt(c)
		if math.Abs(got-float64(want)) > 1e-2*math.Max(1, math.Abs(float64(want))) {
			t.Fatalf("reconstruct at %v = %v, want %v", c, got, want)
		}
	}
}

func TestCPALSOrder4(t *testing.T) {
	x, _ := lowRankTensor([]int{5, 6, 4, 5}, 2, 13)
	res, err := CPALS(x, 3, 150, 1e-8, 5, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.99 {
		t.Fatalf("order-4 CP-ALS fit %v", res.Fit)
	}
	if len(res.Factors) != 4 || len(res.Lambda) != 3 {
		t.Fatalf("result shapes wrong")
	}
	// Factor columns are unit norm.
	for n, f := range res.Factors {
		for r := 0; r < 3; r++ {
			var s float64
			for i := 0; i < f.Rows; i++ {
				s += float64(f.At(i, r)) * float64(f.At(i, r))
			}
			if math.Abs(math.Sqrt(s)-1) > 1e-3 {
				t.Fatalf("factor %d column %d norm %v", n, r, math.Sqrt(s))
			}
		}
	}
}

func TestCPALSSparseTensorImprovesFit(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	x := tensor.RandomCOO([]tensor.Index{30, 30, 30}, 600, rng)
	res, err := CPALS(x, 8, 30, 1e-6, 7, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit <= 0 || res.Fit > 1 {
		t.Fatalf("fit %v out of (0,1]", res.Fit)
	}
}

func TestCPALSErrors(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{5, 5, 5}, 20, rand.New(rand.NewSource(1)))
	if _, err := CPALS(x, 0, 10, 1e-6, 1, parallel.Options{}); err == nil {
		t.Fatal("expected rank error")
	}
	z := tensor.NewCOO([]tensor.Index{4, 4}, 0)
	if _, err := CPALS(z, 2, 10, 1e-6, 1, parallel.Options{}); err == nil {
		t.Fatal("expected zero-tensor error")
	}
}

func TestTtvChain(t *testing.T) {
	// X(i,j,k) over 2x2x2 with value i+2j+4k+1; contract modes 1,2 with
	// ones → y[i] = Σ_{j,k} X(i,j,k).
	x := tensor.NewCOO([]tensor.Index{2, 2, 2}, 8)
	for i := tensor.Index(0); i < 2; i++ {
		for j := tensor.Index(0); j < 2; j++ {
			for k := tensor.Index(0); k < 2; k++ {
				x.Append([]tensor.Index{i, j, k}, tensor.Value(i+2*j+4*k+1))
			}
		}
	}
	ones := tensor.Vector{1, 1}
	y, err := TtvChain(x, []tensor.Vector{nil, ones, ones}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// y[0] = Σ (0+2j+4k+1) = 4 + 2(0+1)·2/... enumerate: j,k ∈ {0,1}:
	// 1+3+5+7 = 16; y[1] = 2+4+6+8 = 20.
	if y[0] != 16 || y[1] != 20 {
		t.Fatalf("TtvChain = %v, want [16 20]", y)
	}
	// Errors.
	if _, err := TtvChain(x, []tensor.Vector{ones, ones}, 0); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := TtvChain(x, []tensor.Vector{nil, ones, ones}, 5); err == nil {
		t.Fatal("expected skip range error")
	}
	if _, err := TtvChain(x, []tensor.Vector{nil, tensor.Vector{1}, ones}, 0); err == nil {
		t.Fatal("expected vector length error")
	}
}

func TestPowerMethodRecoversRankOne(t *testing.T) {
	// Build an exact rank-1 tensor λ·u∘v∘w.
	x, mats := lowRankTensor([]int{10, 9, 8}, 1, 23)
	res, err := PowerMethod(x, 100, 1e-9, 3)
	if err != nil {
		t.Fatal(err)
	}
	// λ must equal the product of factor column norms.
	want := 1.0
	for _, m := range mats {
		var s float64
		for i := 0; i < m.Rows; i++ {
			s += float64(m.At(i, 0)) * float64(m.At(i, 0))
		}
		want *= math.Sqrt(s)
	}
	if math.Abs(res.Lambda-want) > 1e-3*want {
		t.Fatalf("lambda %v, want %v", res.Lambda, want)
	}
	// Vectors match up to sign.
	for n, m := range mats {
		var dot, norm float64
		for i := 0; i < m.Rows; i++ {
			dot += float64(m.At(i, 0)) * float64(res.Vectors[n][i])
			norm += float64(m.At(i, 0)) * float64(m.At(i, 0))
		}
		cos := math.Abs(dot) / math.Sqrt(norm)
		if cos < 0.999 {
			t.Fatalf("mode %d vector misaligned, |cos| = %v", n, cos)
		}
	}
}

func TestPowerMethodErrors(t *testing.T) {
	v := tensor.NewCOO([]tensor.Index{5}, 0)
	if _, err := PowerMethod(v, 10, 1e-6, 1); err == nil {
		t.Fatal("expected order error")
	}
}

func TestTTMChainComputesCore(t *testing.T) {
	// X 2x2 identity-ish, U matrices 2x1 of ones: core = Σ X(i,j).
	x := tensor.NewCOO([]tensor.Index{2, 2}, 2)
	x.Append([]tensor.Index{0, 0}, 3)
	x.Append([]tensor.Index{1, 1}, 4)
	ones := tensor.NewMatrix(2, 1)
	ones.Fill(1)
	core, err := TTMChain(x, []*tensor.Matrix{ones, ones})
	if err != nil {
		t.Fatal(err)
	}
	if len(core.Data) != 1 || core.At(0, 0) != 7 {
		t.Fatalf("core = %+v, want single 7", core)
	}
}

func TestTTMChainAgainstDirectComputation(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := tensor.RandomCOO([]tensor.Index{6, 7, 5}, 80, rng)
	mats := []*tensor.Matrix{tensor.NewMatrix(6, 2), tensor.NewMatrix(7, 3), tensor.NewMatrix(5, 2)}
	for _, m := range mats {
		m.Randomize(rng)
	}
	coreT, err := TTMChain(x, mats)
	if err != nil {
		t.Fatal(err)
	}
	if len(coreT.Dims) != 3 || coreT.Dims[0] != 2 || coreT.Dims[1] != 3 || coreT.Dims[2] != 2 {
		t.Fatalf("core dims %v", coreT.Dims)
	}
	// Direct: core(p,q,r) = Σ_nnz x · U1(i,p) U2(j,q) U3(k,r).
	idx := make([]tensor.Index, 3)
	for p := 0; p < 2; p++ {
		for q := 0; q < 3; q++ {
			for r := 0; r < 2; r++ {
				var want float64
				for m := 0; m < x.NNZ(); m++ {
					v := x.Entry(m, idx)
					want += float64(v) * float64(mats[0].At(int(idx[0]), p)) *
						float64(mats[1].At(int(idx[1]), q)) * float64(mats[2].At(int(idx[2]), r))
				}
				got := float64(coreT.At(p, q, r))
				if math.Abs(got-want) > 1e-3*math.Max(1, math.Abs(want)) {
					t.Fatalf("core(%d,%d,%d) = %v, want %v", p, q, r, got, want)
				}
			}
		}
	}
}

func TestTTMChainErrors(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{4, 4}, 8, rand.New(rand.NewSource(2)))
	if _, err := TTMChain(x, []*tensor.Matrix{nil}); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := TTMChain(x, []*tensor.Matrix{nil, tensor.NewMatrix(4, 2)}); err == nil {
		t.Fatal("expected nil-matrix error")
	}
	if _, err := TTMChain(x, []*tensor.Matrix{tensor.NewMatrix(3, 2), tensor.NewMatrix(4, 2)}); err == nil {
		t.Fatal("expected row-count error")
	}
}

func TestFrobeniusNorm(t *testing.T) {
	x := tensor.NewCOO([]tensor.Index{3, 3}, 2)
	x.Append([]tensor.Index{0, 0}, 3)
	x.Append([]tensor.Index{1, 2}, 4)
	if n := frobeniusNorm(x); n != 5 {
		t.Fatalf("norm %v, want 5", n)
	}
}

// At returns the element at the given coordinates.
func (d *DenseTensor) At(idx ...int) tensor.Value {
	return d.Data[d.offset(idx)]
}

func (d *DenseTensor) offset(idx []int) int {
	if len(idx) != len(d.Dims) {
		panic("algo: DenseTensor index arity mismatch")
	}
	off := 0
	for n, i := range idx {
		if i < 0 || i >= d.Dims[n] {
			panic("algo: DenseTensor index out of range")
		}
		off = off*d.Dims[n] + i
	}
	return off
}
