package contract

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/tensor"
)

func TestContractMatricesLikeMatMul(t *testing.T) {
	// Sparse matrix product: Z(i,k) = Σ_j X(i,j) Y(j,k).
	x := tensor.NewCOO([]tensor.Index{2, 3}, 3)
	x.Append([]tensor.Index{0, 0}, 1)
	x.Append([]tensor.Index{0, 2}, 2)
	x.Append([]tensor.Index{1, 1}, 3)
	y := tensor.NewCOO([]tensor.Index{3, 2}, 3)
	y.Append([]tensor.Index{0, 0}, 4)
	y.Append([]tensor.Index{2, 0}, 5)
	y.Append([]tensor.Index{1, 1}, 6)

	z, err := Contract(x, y, []int{1}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if z.Order() != 2 || z.Dims[0] != 2 || z.Dims[1] != 2 {
		t.Fatalf("output shape %v", z.Dims)
	}
	// Z(0,0) = 1*4 + 2*5 = 14; Z(1,1) = 3*6 = 18.
	if v, _ := z.At(0, 0); v != 14 {
		t.Fatalf("Z(0,0) = %v, want 14", v)
	}
	if v, _ := z.At(1, 1); v != 18 {
		t.Fatalf("Z(1,1) = %v, want 18", v)
	}
	if z.NNZ() != 2 {
		t.Fatalf("nnz %d, want 2", z.NNZ())
	}
}

// refContract computes the contraction densely in float64.
func refContract(x, y *tensor.COO, xModes, yModes []int) map[string]float64 {
	out := make(map[string]float64)
	xi := make([]tensor.Index, x.Order())
	yi := make([]tensor.Index, y.Order())
	xFree := freeModes(x.Order(), xModes)
	yFree := freeModes(y.Order(), yModes)
	for a := 0; a < x.NNZ(); a++ {
		xv := x.Entry(a, xi)
	next:
		for b := 0; b < y.NNZ(); b++ {
			yv := y.Entry(b, yi)
			for i := range xModes {
				if xi[xModes[i]] != yi[yModes[i]] {
					continue next
				}
			}
			key := ""
			for _, n := range xFree {
				key += string(rune(xi[n])) + ","
			}
			for _, n := range yFree {
				key += string(rune(yi[n])) + ","
			}
			out[key] += float64(xv) * float64(yv)
		}
	}
	return out
}

func TestContractAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandomCOO([]tensor.Index{8, 9, 10}, 100, rng)
	y := tensor.RandomCOO([]tensor.Index{10, 9, 7}, 100, rng)
	// Contract X modes (1,2) with Y modes (1,0): Z(i, k) over 8×7.
	z, err := Contract(x, y, []int{1, 2}, []int{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := refContract(x, y, []int{1, 2}, []int{1, 0})
	var wantNNZ int
	for key, wv := range want {
		if wv != 0 {
			wantNNZ++
		}
		_ = key
	}
	if z.NNZ() != wantNNZ {
		t.Fatalf("nnz %d, want %d", z.NNZ(), wantNNZ)
	}
	// Spot-check totals since key encodings differ.
	var sumGot, sumWant float64
	for _, v := range z.Vals {
		sumGot += float64(v)
	}
	for _, v := range want {
		sumWant += v
	}
	if math.Abs(sumGot-sumWant) > 1e-3*math.Max(1, math.Abs(sumWant)) {
		t.Fatalf("sum %v, want %v", sumGot, sumWant)
	}
	// Element-level check through tensor.At.
	xi := make([]tensor.Index, 3)
	yi := make([]tensor.Index, 3)
	for a := 0; a < x.NNZ(); a++ {
		x.Entry(a, xi)
		for b := 0; b < y.NNZ(); b++ {
			y.Entry(b, yi)
			if xi[1] == yi[1] && xi[2] == yi[0] {
				if _, ok := z.At(xi[0], yi[2]); !ok {
					t.Fatalf("missing output at (%d,%d)", xi[0], yi[2])
				}
			}
		}
	}
}

func TestContractMatchesTtmDenseCase(t *testing.T) {
	// Contracting X's mode n against the first mode of a "matrix tensor"
	// must agree with the dense Ttm kernel.
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandomCOO([]tensor.Index{12, 10, 14}, 200, rng)
	r := 5
	u := tensor.NewMatrix(14, r)
	u.Randomize(rng)
	// Matrix as an order-2 tensor (k, r).
	um := tensor.NewCOO([]tensor.Index{14, tensor.Index(r)}, 14*r)
	for k := 0; k < 14; k++ {
		for c := 0; c < r; c++ {
			um.Append([]tensor.Index{tensor.Index(k), tensor.Index(c)}, u.At(k, c))
		}
	}
	z, err := Contract(x, um, []int{2}, []int{0})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Ttm(x, u, 2)
	if err != nil {
		t.Fatal(err)
	}
	wc := want.ToCOO()
	if d := tensor.AbsDiff(z, wc); d > 1e-3 {
		t.Fatalf("contract vs Ttm diff %v", d)
	}
}

func TestContractErrors(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{4, 4}, 6, rand.New(rand.NewSource(3)))
	y := tensor.RandomCOO([]tensor.Index{5, 5}, 6, rand.New(rand.NewSource(4)))
	if _, err := Contract(x, y, []int{0}, []int{0, 1}); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := Contract(x, y, nil, nil); err == nil {
		t.Fatal("expected empty-contraction error")
	}
	if _, err := Contract(x, y, []int{0}, []int{0}); err == nil {
		t.Fatal("expected size-mismatch error")
	}
	if _, err := Contract(x, y, []int{7}, []int{0}); err == nil {
		t.Fatal("expected range error")
	}
	if _, err := Contract(x, x, []int{0, 0}, []int{0, 1}); err == nil {
		t.Fatal("expected duplicate-mode error")
	}
	if _, err := Contract(x, x.Clone(), []int{0, 1}, []int{0, 1}); err == nil {
		t.Fatal("expected scalar-result error")
	}
}

func TestContractProperty(t *testing.T) {
	// Σ Z must equal Σ over matching pairs for random inputs, and the
	// operation must be symmetric under swapping operands (with permuted
	// output modes).
	f := func(seedX, seedY int64) bool {
		rngX := rand.New(rand.NewSource(seedX))
		rngY := rand.New(rand.NewSource(seedY))
		x := tensor.RandomCOO([]tensor.Index{6, 7}, 20, rngX)
		y := tensor.RandomCOO([]tensor.Index{7, 5}, 20, rngY)
		z1, err := Contract(x, y, []int{1}, []int{0})
		if err != nil {
			return false
		}
		z2, err := Contract(y, x, []int{0}, []int{1})
		if err != nil {
			return false
		}
		// z2 has modes (y-free, x-free) = transposed z1.
		if z1.NNZ() != z2.NNZ() {
			return false
		}
		var s1, s2 float64
		for _, v := range z1.Vals {
			s1 += float64(v)
		}
		for _, v := range z2.Vals {
			s2 += float64(v)
		}
		return math.Abs(s1-s2) <= 1e-3*math.Max(1, math.Abs(s1))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
