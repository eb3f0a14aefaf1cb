package tensor

import (
	"math/rand"
	"testing"
)

func TestSemiCOOBasics(t *testing.T) {
	// 3x4x5 tensor with mode 1 dense.
	s := NewSemiCOO([]Index{3, 4, 5}, []int{1}, 2)
	if s.Order() != 3 {
		t.Fatalf("Order = %d, want 3", s.Order())
	}
	if s.DenseSize() != 4 {
		t.Fatalf("DenseSize = %d, want 4", s.DenseSize())
	}
	sm := s.SparseModes()
	if len(sm) != 2 || sm[0] != 0 || sm[1] != 2 {
		t.Fatalf("SparseModes = %v, want [0 2]", sm)
	}
	if !s.IsDenseMode(1) || s.IsDenseMode(0) || s.IsDenseMode(2) {
		t.Fatal("IsDenseMode wrong")
	}
	f := s.AppendFiber([]Index{1, 3})
	if f != 0 || s.NumFibers() != 1 {
		t.Fatalf("AppendFiber returned %d, NumFibers=%d", f, s.NumFibers())
	}
	vals := s.FiberVals(0)
	if len(vals) != 4 {
		t.Fatalf("FiberVals length %d, want 4", len(vals))
	}
	vals[2] = 7
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSemiCOOToCOO(t *testing.T) {
	s := NewSemiCOO([]Index{2, 3, 2}, []int{1}, 2)
	f0 := s.AppendFiber([]Index{0, 1})
	copy(s.FiberVals(f0), []Value{1, 0, 2})
	f1 := s.AppendFiber([]Index{1, 0})
	copy(s.FiberVals(f1), []Value{0, 0, 5})
	c := s.ToCOO()
	if c.NNZ() != 3 {
		t.Fatalf("ToCOO NNZ = %d, want 3 (zeros dropped)", c.NNZ())
	}
	checks := []struct {
		i, j, k Index
		v       Value
	}{{0, 0, 1, 1}, {0, 2, 1, 2}, {1, 2, 0, 5}}
	for _, c2 := range checks {
		if v, ok := c.At(c2.i, c2.j, c2.k); !ok || v != c2.v {
			t.Fatalf("At(%d,%d,%d) = %v,%v want %v,true", c2.i, c2.j, c2.k, v, ok, c2.v)
		}
	}
}

func TestSemiCOOMultipleDenseModes(t *testing.T) {
	s := NewSemiCOO([]Index{3, 2, 2}, []int{1, 2}, 1)
	if s.DenseSize() != 4 {
		t.Fatalf("DenseSize = %d, want 4", s.DenseSize())
	}
	f := s.AppendFiber([]Index{2})
	// Row-major dense layout over modes (1,2): offsets (j,k) = j*2+k.
	copy(s.FiberVals(f), []Value{10, 11, 12, 13})
	c := s.ToCOO()
	if v, ok := c.At(2, 1, 0); !ok || v != 12 {
		t.Fatalf("At(2,1,0) = %v, want 12", v)
	}
	if v, ok := c.At(2, 0, 1); !ok || v != 11 {
		t.Fatalf("At(2,0,1) = %v, want 11", v)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSemiCOOValidateCatchesErrors(t *testing.T) {
	s := NewSemiCOO([]Index{3, 4, 5}, []int{1}, 1)
	s.AppendFiber([]Index{1, 2})
	s.Inds[0][0] = 99
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted out-of-range sparse index")
	}
	s.Inds[0][0] = 1
	s.Vals = s.Vals[:2]
	if err := s.Validate(); err == nil {
		t.Fatal("Validate accepted truncated values")
	}
}

func TestSemiCOODenseModesMustAscend(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-ascending dense modes")
		}
	}()
	NewSemiCOO([]Index{2, 2, 2}, []int{2, 1}, 0)
}

func TestMatrixBasics(t *testing.T) {
	m := NewMatrix(3, 4)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatal("Set/At roundtrip failed")
	}
	r := m.Row(1)
	if len(r) != 4 || r[2] != 5 {
		t.Fatalf("Row = %v", r)
	}
	m.Fill(2)
	if m.At(0, 0) != 2 || m.At(2, 3) != 2 {
		t.Fatal("Fill failed")
	}
	m.Zero()
	if m.At(2, 3) != 0 {
		t.Fatal("Zero failed")
	}
	m.Randomize(rand.New(rand.NewSource(1)))
	var sum Value
	for _, v := range m.Data {
		if v < 0 || v >= 1 {
			t.Fatalf("Randomize out of range: %v", v)
		}
		sum += v
	}
	if sum == 0 {
		t.Fatal("Randomize produced all zeros")
	}
}

func TestVectorOps(t *testing.T) {
	if n := (Vector{3, 4}).Norm2(); n != 5 {
		t.Fatalf("Norm2 = %v, want 5", n)
	}
	rv := RandomVector(10, rand.New(rand.NewSource(2)))
	if len(rv) != 10 {
		t.Fatal("RandomVector length wrong")
	}
}
