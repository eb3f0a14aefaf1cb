package algo

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/tensor"
)

// ReconstructAt evaluates the Tucker model X̂ at one coordinate.
func (res *TuckerResult) ReconstructAt(idx []tensor.Index) float64 {
	dims := res.Core.Dims
	order := len(dims)
	var s float64
	coord := make([]int, order)
	var walk func(level int, prod float64)
	walk = func(level int, prod float64) {
		if level == order {
			off := 0
			for n, c := range coord {
				off = off*dims[n] + c
			}
			s += prod * float64(res.Core.Data[off])
			return
		}
		for r := 0; r < dims[level]; r++ {
			coord[level] = r
			walk(level+1, prod*float64(res.Factors[level].At(int(idx[level]), r)))
		}
	}
	walk(0, 1)
	return s
}

func TestJacobiEigenKnownMatrix(t *testing.T) {
	// Symmetric 2x2 with eigenvalues 3 and 1.
	a := []float64{2, 1, 1, 2}
	vals, vecs, err := jacobiEigen(a, 2)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(vals[0]-3) > 1e-10 || math.Abs(vals[1]-1) > 1e-10 {
		t.Fatalf("eigenvalues %v, want [3 1]", vals)
	}
	// A·v = λ·v for each column.
	for c := 0; c < 2; c++ {
		for i := 0; i < 2; i++ {
			var av float64
			for k := 0; k < 2; k++ {
				av += a[i*2+k] * vecs[k*2+c]
			}
			if math.Abs(av-vals[c]*vecs[i*2+c]) > 1e-10 {
				t.Fatalf("column %d is not an eigenvector", c)
			}
		}
	}
}

func TestJacobiEigenRandomSPD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 12
	// Build SPD A = B·Bᵀ.
	b := make([]float64, n*n)
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	a := make([]float64, n*n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			for k := 0; k < n; k++ {
				s += b[i*n+k] * b[j*n+k]
			}
			a[i*n+j] = s
		}
	}
	vals, vecs, err := jacobiEigen(a, n)
	if err != nil {
		t.Fatal(err)
	}
	// Descending non-negative eigenvalues.
	for i := 1; i < n; i++ {
		if vals[i] > vals[i-1]+1e-9 {
			t.Fatal("eigenvalues not descending")
		}
	}
	if vals[n-1] < -1e-8 {
		t.Fatalf("SPD matrix produced negative eigenvalue %v", vals[n-1])
	}
	// Orthonormal columns.
	for c1 := 0; c1 < n; c1++ {
		for c2 := c1; c2 < n; c2++ {
			var dot float64
			for k := 0; k < n; k++ {
				dot += vecs[k*n+c1] * vecs[k*n+c2]
			}
			want := 0.0
			if c1 == c2 {
				want = 1
			}
			if math.Abs(dot-want) > 1e-8 {
				t.Fatalf("columns %d,%d dot %v", c1, c2, dot)
			}
		}
	}
	// Residual ‖A v - λ v‖ small.
	for c := 0; c < n; c++ {
		var res float64
		for i := 0; i < n; i++ {
			var av float64
			for k := 0; k < n; k++ {
				av += a[i*n+k] * vecs[k*n+c]
			}
			d := av - vals[c]*vecs[i*n+c]
			res += d * d
		}
		if math.Sqrt(res) > 1e-6*(1+math.Abs(vals[c])) {
			t.Fatalf("eigenpair %d residual %v", c, math.Sqrt(res))
		}
	}
}

func TestJacobiEigenBadInput(t *testing.T) {
	if _, _, err := jacobiEigen([]float64{1, 2, 3}, 2); err == nil {
		t.Fatal("expected size error")
	}
}

func TestRandomOrthonormal(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := randomOrthonormal(20, 5, rng)
	for c1 := 0; c1 < 5; c1++ {
		for c2 := c1; c2 < 5; c2++ {
			var dot float64
			for i := 0; i < 20; i++ {
				dot += float64(m.At(i, c1)) * float64(m.At(i, c2))
			}
			want := 0.0
			if c1 == c2 {
				want = 1
			}
			if math.Abs(dot-want) > 1e-5 {
				t.Fatalf("columns %d,%d dot %v", c1, c2, dot)
			}
		}
	}
}

// tuckerTensor builds a dense tensor (as COO) with exact Tucker structure
// G ×₁ U₁ ×₂ U₂ ×₃ U₃ using random orthonormal factors.
func tuckerTensor(dims []int, ranks []int, seed int64) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	order := len(dims)
	factors := make([]*tensor.Matrix, order)
	for n := range dims {
		factors[n] = randomOrthonormal(dims[n], ranks[n], rng)
	}
	coreN := 1
	for _, r := range ranks {
		coreN *= r
	}
	core := make([]float64, coreN)
	for i := range core {
		core[i] = rng.NormFloat64()
	}
	td := make([]tensor.Index, order)
	for n, d := range dims {
		td[n] = tensor.Index(d)
	}
	x := tensor.NewCOO(td, 0)
	idx := make([]tensor.Index, order)
	rIdx := make([]int, order)
	var fill func(n int)
	fill = func(n int) {
		if n == order {
			var v float64
			var walk func(l int, prod float64, off int)
			walk = func(l int, prod float64, off int) {
				if l == order {
					v += prod * core[off]
					return
				}
				for r := 0; r < ranks[l]; r++ {
					rIdx[l] = r
					walk(l+1, prod*float64(factors[l].At(int(idx[l]), r)), off*ranks[l]+r)
				}
			}
			walk(0, 1, 0)
			if v != 0 {
				x.Append(idx, tensor.Value(v))
			}
			return
		}
		for i := 0; i < dims[n]; i++ {
			idx[n] = tensor.Index(i)
			fill(n + 1)
		}
	}
	fill(0)
	return x
}

func TestTuckerHOOIRecoversExactStructure(t *testing.T) {
	dims := []int{12, 10, 8}
	ranks := []int{3, 2, 2}
	x := tuckerTensor(dims, ranks, 7)
	res, err := TuckerHOOI(x, ranks, 30, 1e-9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.999 {
		t.Fatalf("HOOI fit %v on an exactly rank-(3,2,2) tensor (iters=%d)", res.Fit, res.Iters)
	}
	// Core dims match the requested ranks.
	for n, r := range ranks {
		if res.Core.Dims[n] != r {
			t.Fatalf("core dims %v, want %v", res.Core.Dims, ranks)
		}
	}
	// Factors stay orthonormal.
	for n, f := range res.Factors {
		for c1 := 0; c1 < ranks[n]; c1++ {
			for c2 := c1; c2 < ranks[n]; c2++ {
				var dot float64
				for i := 0; i < f.Rows; i++ {
					dot += float64(f.At(i, c1)) * float64(f.At(i, c2))
				}
				want := 0.0
				if c1 == c2 {
					want = 1
				}
				if math.Abs(dot-want) > 1e-4 {
					t.Fatalf("factor %d not orthonormal", n)
				}
			}
		}
	}
	// Pointwise reconstruction.
	for _, c := range [][]tensor.Index{{0, 0, 0}, {5, 5, 5}, {11, 9, 7}} {
		want, _ := x.At(c...)
		got := res.ReconstructAt(c)
		if math.Abs(got-float64(want)) > 1e-3*math.Max(1, math.Abs(float64(want))) {
			t.Fatalf("reconstruct at %v = %v, want %v", c, got, want)
		}
	}
}

func TestTuckerHOOIOnSparseTensor(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandomCOO([]tensor.Index{40, 30, 20}, 800, rng)
	res, err := TuckerHOOI(x, []int{6, 5, 4}, 10, 1e-6, 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit <= 0 || res.Fit > 1 {
		t.Fatalf("fit %v outside (0,1]", res.Fit)
	}
}

func TestTuckerHOOIOrder4(t *testing.T) {
	dims := []int{8, 7, 6, 5}
	ranks := []int{2, 2, 2, 2}
	x := tuckerTensor(dims, ranks, 11)
	res, err := TuckerHOOI(x, ranks, 25, 1e-9, 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fit < 0.99 {
		t.Fatalf("order-4 HOOI fit %v", res.Fit)
	}
}

func TestTuckerHOOIErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := tensor.RandomCOO([]tensor.Index{5, 5, 5}, 20, rng)
	if _, err := TuckerHOOI(x, []int{2, 2}, 5, 1e-6, 1); err == nil {
		t.Fatal("expected rank-arity error")
	}
	if _, err := TuckerHOOI(x, []int{0, 2, 2}, 5, 1e-6, 1); err == nil {
		t.Fatal("expected zero-rank error")
	}
	if _, err := TuckerHOOI(x, []int{9, 2, 2}, 5, 1e-6, 1); err == nil {
		t.Fatal("expected rank-exceeds-size error")
	}
	z := tensor.NewCOO([]tensor.Index{4, 4}, 0)
	if _, err := TuckerHOOI(z, []int{2, 2}, 5, 1e-6, 1); err == nil {
		t.Fatal("expected zero-tensor error")
	}
}
