package tensor

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
)

func TestReadTNS(t *testing.T) {
	in := `# a comment
1 1 1 1.5

2 3 4 -2.0
1 2 1 0.25
`
	x, err := ParseTNS([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if x.Order() != 3 || x.NNZ() != 3 {
		t.Fatalf("order=%d nnz=%d, want 3,3", x.Order(), x.NNZ())
	}
	// Dims inferred from max coordinate.
	want := []Index{2, 3, 4}
	for n := range want {
		if x.Dims[n] != want[n] {
			t.Fatalf("Dims = %v, want %v", x.Dims, want)
		}
	}
	if v, ok := x.At(0, 0, 0); !ok || v != 1.5 {
		t.Fatalf("At(0,0,0) = %v,%v", v, ok)
	}
	if v, ok := x.At(1, 2, 3); !ok || v != -2 {
		t.Fatalf("At(1,2,3) = %v,%v", v, ok)
	}
}

func TestReadTNSErrors(t *testing.T) {
	cases := map[string]string{
		"empty":          "",
		"zero coord":     "0 1 1.0\n",
		"bad coord":      "a 1 1.0\n",
		"bad value":      "1 1 x\n",
		"ragged fields":  "1 1 1 1.0\n1 1 2.0\n",
		"value only":     "3.5\n",
		"negative coord": "-1 1 1.0\n",
	}
	for name, in := range cases {
		if _, err := ParseTNS([]byte(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestTNSRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := RandomCOO([]Index{20, 30, 10, 5}, 200, rng)
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := ParseTNS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if y.Order() != x.Order() || y.NNZ() != x.NNZ() {
		t.Fatalf("roundtrip shape: got order=%d nnz=%d", y.Order(), y.NNZ())
	}
	// Dims may shrink to the max used coordinate — content must match.
	if d := AbsDiff(x, y); d > 1e-6 {
		t.Fatalf("roundtrip content diff %v", d)
	}
}

func TestTNSFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tns")
	rng := rand.New(rand.NewSource(6))
	x := RandomCOO([]Index{8, 8, 8}, 40, rng)
	if err := WriteTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	y, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := AbsDiff(x, y); d > 1e-6 {
		t.Fatalf("file roundtrip diff %v", d)
	}
	if _, err := ReadFile(filepath.Join(dir, "missing.tns")); err == nil {
		t.Fatal("expected error for missing file")
	}
}

func TestStatsFiber(t *testing.T) {
	// Mode-2 fibers: (0,0,*) has 3 nnz, (1,1,*) has 1 nnz.
	x := NewCOO([]Index{2, 2, 8}, 4)
	x.AppendIdx3(0, 0, 0, 1)
	x.AppendIdx3(0, 0, 3, 1)
	x.AppendIdx3(0, 0, 7, 1)
	x.AppendIdx3(1, 1, 2, 1)
	st := ComputeFiberStats(x, 2)
	if st.NumFibers != 2 || st.MinLen != 1 || st.MaxLen != 3 || st.MeanLen != 2 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Imbalance != 1.5 {
		t.Fatalf("Imbalance = %v, want 1.5", st.Imbalance)
	}
	// ComputeFiberStats must not disturb the input ordering metadata.
	if x.sortOrder != nil {
		t.Fatal("ComputeFiberStats modified input sort state")
	}
}

func TestModeCollisions(t *testing.T) {
	x := NewCOO([]Index{4, 4}, 4)
	x.Append([]Index{0, 0}, 1)
	x.Append([]Index{0, 1}, 1)
	x.Append([]Index{0, 2}, 1)
	x.Append([]Index{1, 3}, 1)
	if c := ModeCollisions(x, 0); c != 2 { // 4 nnz / 2 distinct
		t.Fatalf("ModeCollisions mode0 = %v, want 2", c)
	}
	if c := ModeCollisions(x, 1); c != 1 { // all distinct
		t.Fatalf("ModeCollisions mode1 = %v, want 1", c)
	}
	empty := NewCOO([]Index{4}, 0)
	if c := ModeCollisions(empty, 0); c != 0 {
		t.Fatalf("ModeCollisions empty = %v, want 0", c)
	}
}
