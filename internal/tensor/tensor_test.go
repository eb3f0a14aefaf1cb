package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustValidate(t *testing.T, x *COO) {
	t.Helper()
	if err := x.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestNewCOOBasics(t *testing.T) {
	x := NewCOO([]Index{4, 5, 6}, 8)
	if x.Order() != 3 {
		t.Fatalf("Order = %d, want 3", x.Order())
	}
	if x.NNZ() != 0 {
		t.Fatalf("NNZ = %d, want 0", x.NNZ())
	}
	if x.Dim(1) != 5 {
		t.Fatalf("Dim(1) = %d, want 5", x.Dim(1))
	}
	x.AppendIdx3(0, 1, 2, 1.5)
	x.Append([]Index{3, 4, 5}, 2.5)
	if x.NNZ() != 2 {
		t.Fatalf("NNZ = %d, want 2", x.NNZ())
	}
	mustValidate(t, x)
	if got := x.NumEl(); got != 120 {
		t.Fatalf("NumEl = %v, want 120", got)
	}
	if got := x.Density(); got != 2.0/120 {
		t.Fatalf("Density = %v, want %v", got, 2.0/120)
	}
	if got := x.StorageBytes(); got != 4*4*2 {
		t.Fatalf("StorageBytes = %d, want 32", got)
	}
}

func TestNewCOOPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"no modes":  func() { NewCOO(nil, 0) },
		"zero size": func() { NewCOO([]Index{3, 0}, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestValidateCatchesOutOfRange(t *testing.T) {
	x := NewCOO([]Index{2, 2}, 1)
	x.Append([]Index{1, 1}, 1)
	x.Inds[0][0] = 5
	if err := x.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range index")
	}
}

func TestValidateCatchesNaN(t *testing.T) {
	x := NewCOO([]Index{2, 2}, 1)
	x.Append([]Index{1, 1}, Value(nan32()))
	if err := x.Validate(); err == nil {
		t.Fatal("Validate accepted NaN value")
	}
}

func nan32() float32 {
	z := float32(0)
	return z / z
}

func TestAtAndDuplicateSum(t *testing.T) {
	x := NewCOO([]Index{3, 3}, 4)
	x.Append([]Index{0, 1}, 2)
	x.Append([]Index{2, 2}, 3)
	x.Append([]Index{0, 1}, 5) // duplicate coordinate
	if v, ok := x.At(2, 2); !ok || v != 3 {
		t.Fatalf("At(2,2) = %v,%v want 3,true", v, ok)
	}
	if _, ok := x.At(1, 1); ok {
		t.Fatal("At(1,1) should be absent")
	}
	summed := NewCOO([]Index{3, 3}, 2)
	summed.Append([]Index{2, 2}, 3)
	summed.Append([]Index{0, 1}, 7)
	if d := AbsDiff(x, summed); d != 0 {
		t.Fatalf("AbsDiff against the summed tensor = %v, want 0 (duplicates summed)", d)
	}
}

func TestCloneIndependence(t *testing.T) {
	x := RandomCOO([]Index{10, 10, 10}, 50, rand.New(rand.NewSource(1)))
	c := x.Clone()
	c.Vals[0] = 999
	c.Inds[0][0] = 9
	if x.Vals[0] == 999 || x.Inds[0][0] == c.Inds[0][0] && c.Inds[0][0] == 9 && x.Inds[0][0] == 9 {
		// Only fails if the clone aliased storage.
		if &x.Vals[0] == &c.Vals[0] {
			t.Fatal("Clone aliased value storage")
		}
	}
	if x.NNZ() != c.NNZ() {
		t.Fatal("Clone changed NNZ")
	}
}

func TestSortNatural(t *testing.T) {
	x := NewCOO([]Index{4, 4}, 4)
	x.Append([]Index{3, 0}, 1)
	x.Append([]Index{0, 2}, 2)
	x.Append([]Index{0, 1}, 3)
	x.Append([]Index{2, 3}, 4)
	x.SortNatural()
	wantI := []Index{0, 0, 2, 3}
	wantJ := []Index{1, 2, 3, 0}
	wantV := []Value{3, 2, 4, 1}
	for m := range wantV {
		if x.Inds[0][m] != wantI[m] || x.Inds[1][m] != wantJ[m] || x.Vals[m] != wantV[m] {
			t.Fatalf("entry %d = (%d,%d,%v), want (%d,%d,%v)",
				m, x.Inds[0][m], x.Inds[1][m], x.Vals[m], wantI[m], wantJ[m], wantV[m])
		}
	}
	if !x.IsSortedBy([]int{0, 1}) {
		t.Fatal("sort order not recorded")
	}
}

func TestSortForModePutsModeLast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	x := RandomCOO([]Index{8, 9, 10}, 200, rng)
	for mode := 0; mode < 3; mode++ {
		x.SortForMode(mode)
		perm := ModeOrder(3, mode)
		for m := 1; m < x.NNZ(); m++ {
			for _, n := range perm {
				a, b := x.Inds[n][m-1], x.Inds[n][m]
				if a < b {
					break
				}
				if a > b {
					t.Fatalf("mode %d: entries %d,%d out of order in mode %d", mode, m-1, m, n)
				}
			}
		}
	}
}

func TestSortPreservesContent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := RandomCOO([]Index{16, 16, 16}, 300, rng)
	before := x.Clone()
	x.SortForMode(2)
	x.SortForMode(0)
	x.SortNatural()
	if x.NNZ() != before.NNZ() {
		t.Fatalf("sort changed nnz: %d -> %d", before.NNZ(), x.NNZ())
	}
	if AbsDiff(before, x) != 0 {
		t.Fatal("sort changed tensor content")
	}
}

func TestSortInvalidPermPanics(t *testing.T) {
	x := NewCOO([]Index{2, 2}, 0)
	for _, perm := range [][]int{{0}, {0, 0}, {0, 2}, {1, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("perm %v: expected panic", perm)
				}
			}()
			x.Sort(perm)
		}()
	}
}

func TestModeOrder(t *testing.T) {
	cases := []struct {
		order, n int
		want     []int
	}{
		{3, 0, []int{1, 2, 0}},
		{3, 1, []int{0, 2, 1}},
		{3, 2, []int{0, 1, 2}},
		{4, 1, []int{0, 2, 3, 1}},
	}
	for _, c := range cases {
		got := ModeOrder(c.order, c.n)
		for i := range c.want {
			if got[i] != c.want[i] {
				t.Errorf("ModeOrder(%d,%d) = %v, want %v", c.order, c.n, got, c.want)
				break
			}
		}
	}
}

func TestDedupSums(t *testing.T) {
	x := NewCOO([]Index{3, 3}, 5)
	x.Append([]Index{1, 1}, 1)
	x.Append([]Index{0, 0}, 2)
	x.Append([]Index{1, 1}, 3)
	x.Append([]Index{1, 1}, 4)
	x.Dedup()
	if x.NNZ() != 2 {
		t.Fatalf("NNZ after dedup = %d, want 2", x.NNZ())
	}
	if v, _ := x.At(1, 1); v != 8 {
		t.Fatalf("At(1,1) = %v, want 8", v)
	}
	if v, _ := x.At(0, 0); v != 2 {
		t.Fatalf("At(0,0) = %v, want 2", v)
	}
}

func TestFiberPointers(t *testing.T) {
	// Tensor with known fibers along mode 2:
	// (0,0,*): entries k=1,3; (0,1,*): k=0; (2,2,*): k=2.
	x := NewCOO([]Index{3, 3, 4}, 4)
	x.AppendIdx3(0, 0, 1, 1)
	x.AppendIdx3(0, 0, 3, 2)
	x.AppendIdx3(0, 1, 0, 3)
	x.AppendIdx3(2, 2, 2, 4)
	x.SortForMode(2)
	fptr := x.FiberPointers(2)
	want := []int64{0, 2, 3, 4}
	if len(fptr) != len(want) {
		t.Fatalf("fptr = %v, want %v", fptr, want)
	}
	for i := range want {
		if fptr[i] != want[i] {
			t.Fatalf("fptr = %v, want %v", fptr, want)
		}
	}
}

func TestFiberPointersRequiresSort(t *testing.T) {
	x := RandomCOO([]Index{5, 5, 5}, 20, rand.New(rand.NewSource(3)))
	x.sortOrder = nil
	defer func() {
		if recover() == nil {
			t.Fatal("FiberPointers on unsorted tensor should panic")
		}
	}()
	x.FiberPointers(1)
}

// Property: fiber pointers partition [0, M) and each fiber is coherent.
func TestFiberPointersProperty(t *testing.T) {
	f := func(seed int64, modeRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		dims := []Index{Index(rng.Intn(20) + 1), Index(rng.Intn(20) + 1), Index(rng.Intn(20) + 1)}
		x := RandomCOO(dims, rng.Intn(400)+1, rng)
		mode := int(modeRaw) % 3
		x.SortForMode(mode)
		fptr := x.FiberPointers(mode)
		if fptr[0] != 0 || fptr[len(fptr)-1] != int64(x.NNZ()) {
			return false
		}
		for f := 0; f+1 < len(fptr); f++ {
			if fptr[f+1] <= fptr[f] {
				return false
			}
			for m := fptr[f] + 1; m < fptr[f+1]; m++ {
				if !x.sameFiber(int(m-1), int(m), mode) {
					return false
				}
			}
			// Adjacent fibers must differ.
			if f+1 < len(fptr)-1 && x.sameFiber(int(fptr[f+1]-1), int(fptr[f+1]), mode) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSameShape(t *testing.T) {
	a := NewCOO([]Index{2, 3}, 0)
	b := NewCOO([]Index{2, 3}, 0)
	c := NewCOO([]Index{3, 2}, 0)
	d := NewCOO([]Index{2, 3, 4}, 0)
	if !SameShape(a, b) {
		t.Fatal("identical shapes reported different")
	}
	if SameShape(a, c) || SameShape(a, d) {
		t.Fatal("different shapes reported same")
	}
}

func TestRandomCOOWithinBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := RandomCOO([]Index{7, 13, 3}, 500, rng)
	mustValidate(t, x)
	if x.NNZ() == 0 || x.NNZ() > 500 {
		t.Fatalf("NNZ = %d, want in (0,500]", x.NNZ())
	}
	y := RandomCOOSkewed([]Index{100, 13, 3}, 500, rng)
	mustValidate(t, y)
}

func TestAbsDiff(t *testing.T) {
	a := NewCOO([]Index{4, 4}, 2)
	a.Append([]Index{0, 0}, 1)
	a.Append([]Index{1, 1}, 2)
	b := a.Clone()
	if d := AbsDiff(a, b); d != 0 {
		t.Fatalf("AbsDiff(identical) = %v, want 0", d)
	}
	b.Vals[1] = 2.5
	if d := AbsDiff(a, b); d != 0.5 {
		t.Fatalf("AbsDiff = %v, want 0.5", d)
	}
	c := NewCOO([]Index{4, 4}, 1)
	c.Append([]Index{3, 3}, 4)
	if d := AbsDiff(a, c); d != 4 {
		t.Fatalf("AbsDiff(disjoint) = %v, want 4", d)
	}
}

// TestMatrixZeroClearsEveryValue: Zero leaves +0 (all bits clear) in
// every value, whatever it held — −0, NaN, ±Inf, subnormals, ±max — and
// Fill with a non-zero value still writes it everywhere.
func TestMatrixZeroClearsEveryValue(t *testing.T) {
	specials := []Value{
		Value(math.Copysign(0, -1)), Value(math.NaN()), Value(math.Inf(1)), Value(math.Inf(-1)),
		math.SmallestNonzeroFloat32, -math.SmallestNonzeroFloat32, math.Float32frombits(0x007fffff),
		math.MaxFloat32, -math.MaxFloat32, 1,
	}
	for _, shape := range [][2]int{{0, 4}, {1, 1}, {3, 7}, {10711, 16}} {
		m := NewMatrix(shape[0], shape[1])
		for i := range m.Data {
			m.Data[i] = specials[i%len(specials)]
		}
		m.Zero()
		for i, v := range m.Data {
			if bits := math.Float32bits(v); bits != 0 {
				t.Fatalf("%dx%d: value %d holds bits %#x after Zero", shape[0], shape[1], i, bits)
			}
		}
		m.Fill(2)
		for i, v := range m.Data {
			if v != 2 {
				t.Fatalf("%dx%d: value %d = %v after Fill(2)", shape[0], shape[1], i, v)
			}
		}
	}
}
