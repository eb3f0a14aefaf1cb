package csf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// MttkrpRoot computes the Mttkrp in the CSF's root mode: the one-shot
// form of the prepared tree plan (mttkrp.go), one parallel unit per root.
func (c *CSF) MttkrpRoot(mats []*tensor.Matrix, opt parallel.Options) (*tensor.Matrix, error) {
	p, err := PrepareMttkrp(c.Tree(), FactorCols(mats, c.ModeOrder[0]))
	if err != nil {
		return nil, err
	}
	return p.ExecuteOMP(mats, opt)
}

// TtvLeaf computes the tensor-times-vector product in the CSF's leaf
// mode: each level-(N-2) node reduces its leaves to one output non-zero.
// The deepest pointer array, the leaf ids and the values are the fiber
// view of core's Ttv, so this is its prepare-and-execute one-shot; the
// output is returned in COO format, its coordinates the upper levels
// unfolded.
func (c *CSF) TtvLeaf(v tensor.Vector, opt parallel.Options) (*tensor.COO, error) {
	order := c.Order()
	if order < 2 {
		return nil, fmt.Errorf("csf: Ttv needs an order >= 2 tensor")
	}
	cols := tensor.UnfoldTree(c.FIds, c.FPtr, c.ModeOrder[:order-1], make([]uint8, order-1), order)
	p, err := core.NewTtvPlan(core.FiberView{
		Fptr: c.FPtr[order-2], KInd: c.FIds[order-1], Vals: c.Vals, Dims: c.Dims, Mode: c.ModeOrder[order-1],
	}, cols)
	if err != nil {
		return nil, err
	}
	return p.ExecuteOMP(v, opt)
}

func randTensor(seed int64, dims []tensor.Index, nnz int) *tensor.COO {
	return tensor.RandomCOO(dims, nnz, rand.New(rand.NewSource(seed)))
}

func TestFromCOORoundTrip(t *testing.T) {
	x := randTensor(1, []tensor.Index{20, 30, 25}, 600)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if c.NNZ() != x.NNZ() {
		t.Fatalf("nnz %d, want %d", c.NNZ(), x.NNZ())
	}
	if d := tensor.AbsDiff(x, c.ToCOO()); d != 0 {
		t.Fatalf("roundtrip diff %v", d)
	}
	if c.StorageBytes() <= 0 {
		t.Fatal("storage must be positive")
	}
}

func TestFromCOOModeOrders(t *testing.T) {
	x := randTensor(2, []tensor.Index{15, 25, 10, 8}, 400)
	orders := [][]int{{0, 1, 2, 3}, {3, 2, 1, 0}, {1, 3, 0, 2}}
	for _, mo := range orders {
		c, err := FromCOO(x, mo)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("order %v: %v", mo, err)
		}
		if d := tensor.AbsDiff(x, c.ToCOO()); d != 0 {
			t.Fatalf("order %v: roundtrip diff %v", mo, d)
		}
	}
}

func TestFromCOOInvalidOrders(t *testing.T) {
	x := randTensor(3, []tensor.Index{4, 4}, 6)
	for _, mo := range [][]int{{0}, {0, 0}, {0, 5}, {1, -1}} {
		if _, err := FromCOO(x, mo); err == nil {
			t.Errorf("order %v: expected error", mo)
		}
	}
}

func TestCSFCompressesVsCOO(t *testing.T) {
	// A clustered tensor shares upper-level nodes, so CSF is smaller.
	x := randTensor(4, []tensor.Index{40, 40, 4000}, 20000)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.StorageBytes() >= x.StorageBytes() {
		t.Fatalf("CSF %d bytes >= COO %d bytes on clustered tensor", c.StorageBytes(), x.StorageBytes())
	}
}

func TestMttkrpRootMatchesCOO(t *testing.T) {
	x := randTensor(5, []tensor.Index{30, 35, 25}, 2000)
	r := 8
	rng := rand.New(rand.NewSource(6))
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	for mode := 0; mode < 3; mode++ {
		// CSF with the target mode as root.
		mo := []int{mode}
		for n := 0; n < 3; n++ {
			if n != mode {
				mo = append(mo, n)
			}
		}
		c, err := FromCOO(x, mo)
		if err != nil {
			t.Fatal(err)
		}
		got, err := c.MttkrpRoot(mats, parallel.Options{Schedule: parallel.Dynamic})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Mttkrp(x, mats, mode)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < got.Rows; i++ {
			for cix := 0; cix < r; cix++ {
				g, w := float64(got.At(i, cix)), float64(want.At(i, cix))
				if math.Abs(g-w) > 2e-4*math.Max(1, math.Abs(w)) {
					t.Fatalf("mode %d (%d,%d): CSF %v, COO %v", mode, i, cix, g, w)
				}
			}
		}
	}
}

func TestMttkrpRootOrder4(t *testing.T) {
	x := randTensor(7, []tensor.Index{12, 10, 14, 9}, 700)
	r := 4
	rng := rand.New(rand.NewSource(8))
	mats := make([]*tensor.Matrix, 4)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	c, err := FromCOO(x, []int{2, 0, 1, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MttkrpRoot(mats, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mttkrp(x, mats, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < got.Rows; i++ {
		for cix := 0; cix < r; cix++ {
			g, w := float64(got.At(i, cix)), float64(want.At(i, cix))
			if math.Abs(g-w) > 2e-4*math.Max(1, math.Abs(w)) {
				t.Fatalf("(%d,%d): CSF %v, COO %v", i, cix, g, w)
			}
		}
	}
}

func TestMttkrpRootErrors(t *testing.T) {
	x := randTensor(9, []tensor.Index{6, 6, 6}, 30)
	c, _ := FromCOO(x, nil)
	if _, err := c.MttkrpRoot([]*tensor.Matrix{nil}, parallel.Options{}); err == nil {
		t.Fatal("expected matrix-count error")
	}
	mats := []*tensor.Matrix{nil, tensor.NewMatrix(6, 4), tensor.NewMatrix(5, 4)}
	if _, err := c.MttkrpRoot(mats, parallel.Options{}); err == nil {
		t.Fatal("expected shape error")
	}
	mats2 := []*tensor.Matrix{nil, nil, tensor.NewMatrix(6, 4)}
	if _, err := c.MttkrpRoot(mats2, parallel.Options{}); err == nil {
		t.Fatal("expected nil-matrix error")
	}
}

func TestTtvLeafMatchesCOO(t *testing.T) {
	x := randTensor(10, []tensor.Index{25, 30, 40}, 1500)
	rng := rand.New(rand.NewSource(11))
	for mode := 0; mode < 3; mode++ {
		mo := []int{}
		for n := 0; n < 3; n++ {
			if n != mode {
				mo = append(mo, n)
			}
		}
		mo = append(mo, mode) // target mode last = leaf
		c, err := FromCOO(x, mo)
		if err != nil {
			t.Fatal(err)
		}
		v := tensor.RandomVector(int(x.Dims[mode]), rng)
		got, err := c.TtvLeaf(v, parallel.Options{Schedule: parallel.Static})
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Ttv(x, v, mode)
		if err != nil {
			t.Fatal(err)
		}
		if d := tensor.AbsDiff(got, want); d > 1e-3 {
			t.Fatalf("mode %d: diff %v", mode, d)
		}
	}
}

func TestTtvLeafVectorLengthError(t *testing.T) {
	x := randTensor(12, []tensor.Index{5, 5, 5}, 20)
	c, _ := FromCOO(x, nil)
	if _, err := c.TtvLeaf(tensor.NewVector(3), parallel.Options{}); err == nil {
		t.Fatal("expected length error")
	}
	// A single-level tree has no fibers to reduce: an error, not an
	// index out of range.
	line, err := FromCOO(randTensor(13, []tensor.Index{50}, 20), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := line.TtvLeaf(tensor.NewVector(50), parallel.Options{}); err == nil {
		t.Fatal("expected an order error")
	}
}

func TestCSFRoundTripProperty(t *testing.T) {
	f := func(seed int64, orderRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		order := int(orderRaw)%3 + 2
		dims := make([]tensor.Index, order)
		for n := range dims {
			dims[n] = tensor.Index(rng.Intn(20) + 1)
		}
		x := tensor.RandomCOO(dims, rng.Intn(200)+1, rng)
		c, err := FromCOO(x, nil)
		if err != nil || c.Validate() != nil {
			return false
		}
		return tensor.AbsDiff(x, c.ToCOO()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
