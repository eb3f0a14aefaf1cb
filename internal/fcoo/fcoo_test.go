package fcoo

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/core"
	"repro/internal/gpusim"
	"repro/internal/tensor"
)

func randTensor(seed int64, dims []tensor.Index, nnz int) *tensor.COO {
	return tensor.RandomCOO(dims, nnz, rand.New(rand.NewSource(seed)))
}

func dev() *gpusim.Device { return gpusim.NewDevice("fcoo", 8) }

func TestFromCOOStructure(t *testing.T) {
	x := randTensor(1, []tensor.Index{20, 25, 30}, 800)
	for mode := 0; mode < 3; mode++ {
		f, err := FromCOO(x, mode, 64)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.Validate(); err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if f.NNZ() != x.NNZ() {
			t.Fatalf("nnz %d, want %d", f.NNZ(), x.NNZ())
		}
		fs := tensor.ComputeFiberStats(x, mode)
		if f.NumFibers() != fs.NumFibers {
			t.Fatalf("mode %d: %d fibers, want %d", mode, f.NumFibers(), fs.NumFibers)
		}
		if f.StorageBytes() <= 0 {
			t.Fatal("storage must be positive")
		}
	}
}

func TestFromCOOErrors(t *testing.T) {
	x := randTensor(2, []tensor.Index{5, 5}, 10)
	if _, err := FromCOO(x, 3, 0); err == nil {
		t.Fatal("expected mode error")
	}
	vec := tensor.NewCOO([]tensor.Index{5}, 0)
	if _, err := FromCOO(vec, 0, 0); err == nil {
		t.Fatal("expected order error")
	}
	if _, err := FromCOOMttkrp(x, -1, 0); err == nil {
		t.Fatal("expected Mttkrp mode error")
	}
	if _, err := FromCOOMttkrp(vec, 0, 0); err == nil {
		t.Fatal("expected Mttkrp order error")
	}
}

func TestTtvGPUMatchesCOO(t *testing.T) {
	x := randTensor(3, []tensor.Index{40, 50, 30}, 3000)
	rng := rand.New(rand.NewSource(4))
	for mode := 0; mode < 3; mode++ {
		for _, seg := range []int{16, 256} {
			f, err := FromCOO(x, mode, seg)
			if err != nil {
				t.Fatal(err)
			}
			v := tensor.RandomVector(int(x.Dims[mode]), rng)
			got, err := f.TtvGPU(dev(), v)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Ttv(x, v, mode)
			if err != nil {
				t.Fatal(err)
			}
			if d := tensor.AbsDiff(got, want); d > 1e-3 {
				t.Fatalf("mode %d seg %d: diff %v", mode, seg, d)
			}
		}
	}
}

func TestTtvGPUSegmentBoundaryCarry(t *testing.T) {
	// One long fiber spanning many segments: every segment carries, so
	// the atomicAdd path handles every partial.
	x := tensor.NewCOO([]tensor.Index{2, 2, 1000}, 600)
	for k := 0; k < 600; k++ {
		x.AppendIdx3(1, 1, tensor.Index(k), 1)
	}
	f, err := FromCOO(x, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	if f.NumFibers() != 1 {
		t.Fatalf("fibers = %d, want 1", f.NumFibers())
	}
	v := tensor.NewVector(1000)
	for i := range v {
		v[i] = 1
	}
	got, err := f.TtvGPU(dev(), v)
	if err != nil {
		t.Fatal(err)
	}
	if got.NNZ() != 1 || got.Vals[0] != 600 {
		t.Fatalf("got %v (nnz=%d), want 600", got.Vals, got.NNZ())
	}
}

func TestTtvGPUErrors(t *testing.T) {
	x := randTensor(5, []tensor.Index{5, 5, 5}, 20)
	f, err := FromCOO(x, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.TtvGPU(dev(), tensor.NewVector(3)); err == nil {
		t.Fatal("expected vector-length error")
	}
}

func TestMttkrpGPUMatchesCOO(t *testing.T) {
	x := randTensor(6, []tensor.Index{30, 35, 25}, 2500)
	r := 8
	rng := rand.New(rand.NewSource(7))
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	for mode := 0; mode < 3; mode++ {
		for _, seg := range []int{32, 512} {
			f, err := FromCOOMttkrp(x, mode, seg)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Validate(); err != nil {
				t.Fatal(err)
			}
			got, err := f.MttkrpGPU(dev(), mats, r)
			if err != nil {
				t.Fatal(err)
			}
			want, err := core.Mttkrp(x, mats, mode)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				g, w := float64(got.Data[i]), float64(want.Data[i])
				if math.Abs(g-w) > 2e-3*math.Max(1, math.Abs(w)) {
					t.Fatalf("mode %d seg %d: element %d = %v, want %v", mode, seg, i, g, w)
				}
			}
		}
	}
}

func TestMttkrpGPUOrder4(t *testing.T) {
	x := randTensor(8, []tensor.Index{12, 10, 14, 8}, 700)
	r := 4
	rng := rand.New(rand.NewSource(9))
	mats := make([]*tensor.Matrix, 4)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	f, err := FromCOOMttkrp(x, 2, 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := f.MttkrpGPU(dev(), mats, r)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Mttkrp(x, mats, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		g, w := float64(got.Data[i]), float64(want.Data[i])
		if math.Abs(g-w) > 2e-3*math.Max(1, math.Abs(w)) {
			t.Fatalf("element %d = %v, want %v", i, g, w)
		}
	}
}

func TestMttkrpGPUErrors(t *testing.T) {
	x := randTensor(10, []tensor.Index{6, 6, 6}, 30)
	f, err := FromCOO(x, 0, 0) // Ttv layout: lacks OtherInds
	if err != nil {
		t.Fatal(err)
	}
	mats := []*tensor.Matrix{nil, tensor.NewMatrix(6, 4), tensor.NewMatrix(6, 4)}
	if _, err := f.MttkrpGPU(dev(), mats, 4); err == nil {
		t.Fatal("expected layout error for Ttv-built F-COO")
	}
	fm, err := FromCOOMttkrp(x, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fm.MttkrpGPU(dev(), mats[:2], 4); err == nil {
		t.Fatal("expected arity error")
	}
	bad := []*tensor.Matrix{nil, tensor.NewMatrix(5, 4), tensor.NewMatrix(6, 4)}
	if _, err := fm.MttkrpGPU(dev(), bad, 4); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestFCOOStorageCompetitive(t *testing.T) {
	// F-COO for Ttv drops the N-1 per-non-zero index arrays in favor of
	// one bit per non-zero plus fiber output indices — smaller than COO
	// whenever fibers are reasonably populated.
	x := randTensor(11, []tensor.Index{64, 64, 64}, 20000)
	f, err := FromCOO(x, 2, 0)
	if err != nil {
		t.Fatal(err)
	}
	if f.StorageBytes() >= x.StorageBytes() {
		t.Fatalf("F-COO %d bytes >= COO %d bytes on clustered tensor", f.StorageBytes(), x.StorageBytes())
	}
}

// TestMttkrpLayoutStorageCountsEveryIndex: the Mttkrp layout keeps
// every non-zero's index in every mode (output rows in KInd, the others
// in OtherInds) plus its value, so it is never smaller than the COO
// tensor's 4·M·(N+1) bytes.
func TestMttkrpLayoutStorageCountsEveryIndex(t *testing.T) {
	for _, dims := range [][]tensor.Index{{40, 30, 20}, {12, 10, 8, 6}} {
		x := randTensor(12, dims, 2000)
		for mode := range dims {
			f, err := FromCOOMttkrp(x, mode, 0)
			if err != nil {
				t.Fatal(err)
			}
			m, n := int64(x.NNZ()), int64(len(dims))
			if got, floor := f.StorageBytes(), 4*m*(n+1); got < floor {
				t.Fatalf("order %d, mode %d: %d bytes, below the %d its indices and values occupy", n, mode, got, floor)
			}
		}
	}
}

func TestFCOOProperty(t *testing.T) {
	f := func(seed int64, modeRaw, segRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []tensor.Index{
			tensor.Index(rng.Intn(20) + 2),
			tensor.Index(rng.Intn(20) + 2),
			tensor.Index(rng.Intn(20) + 2),
		}
		x := tensor.RandomCOO(dims, rng.Intn(300)+1, rng)
		mode := int(modeRaw) % 3
		seg := int(segRaw)%60 + 4
		fc, err := FromCOO(x, mode, seg)
		if err != nil || fc.Validate() != nil {
			return false
		}
		v := tensor.RandomVector(int(dims[mode]), rng)
		got, err := fc.TtvGPU(dev(), v)
		if err != nil {
			return false
		}
		want, err := core.Ttv(x, v, mode)
		if err != nil {
			return false
		}
		return tensor.AbsDiff(got, want) <= 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// StorageBytes returns the F-COO footprint: values, product-mode indices,
// one bit per non-zero, per-segment metadata, and either layout's other
// indices — per fiber for Ttv, per non-zero for Mttkrp.
func (f *FCOO) StorageBytes() int64 {
	m := int64(f.NNZ())
	segs := int64(f.NumSegments())
	b := (tensor.ValueBytes+tensor.IndexBytes)*m + (m+7)/8 + segs/8 + 4*segs
	for range f.OutInds {
		b += tensor.IndexBytes * int64(f.NumFibers())
	}
	for _, inds := range f.OtherInds {
		b += tensor.IndexBytes * int64(len(inds))
	}
	return b
}

// Validate checks structural invariants.
func (f *FCOO) Validate() error {
	m := int64(f.NNZ())
	if m == 0 {
		return nil
	}
	if !bitGet(f.BitFlag, 0) {
		return fmt.Errorf("fcoo: first non-zero must start a fiber")
	}
	flags := int64(0)
	for x := int64(0); x < m; x++ {
		if bitGet(f.BitFlag, x) {
			flags++
		}
	}
	if flags != int64(f.NumFibers()) {
		return fmt.Errorf("fcoo: %d fiber flags for %d output fibers", flags, f.NumFibers())
	}
	for s := 0; s < f.NumSegments(); s++ {
		start := int64(s) * int64(f.SegSize)
		carries := !bitGet(f.BitFlag, start)
		if carries != bitGet(f.StartFlag, int64(s)) {
			return fmt.Errorf("fcoo: segment %d start flag inconsistent", s)
		}
	}
	d := f.Dims[f.Mode]
	for _, k := range f.KInd {
		if k >= d {
			return fmt.Errorf("fcoo: product index %d out of range", k)
		}
	}
	return nil
}
