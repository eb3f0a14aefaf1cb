package ref_test

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"repro/bench/ref"
	"repro/internal/tensor"
)

func tiny(t *testing.T, dims []tensor.Index, nnz int) *tensor.COO {
	t.Helper()
	return tensor.RandomCOO(dims, nnz, rand.New(rand.NewSource(7)))
}

func asRef(t *tensor.COO) *ref.COO { return &ref.COO{Dims: t.Dims, Inds: t.Inds, Vals: t.Vals} }

// The frozen readers must return exactly what the program's writers
// wrote, for every on-disk form the benchmark's load cell reads.
func TestReadersRoundTrip(t *testing.T) {
	for _, dims := range [][]tensor.Index{{9, 7, 5}, {6, 5, 4, 3}} {
		x := tiny(t, dims, 60)
		x.SortNatural() // the tiled writer stores natural order; keep one expectation
		dir := t.TempDir()
		tns, bten, tiled := filepath.Join(dir, "x.tns"), filepath.Join(dir, "x.bten"), filepath.Join(dir, "x3.bten")
		if err := tensor.WriteTNSFile(tns, x); err != nil {
			t.Fatal(err)
		}
		if err := tensor.WriteFile(bten, x); err != nil {
			t.Fatal(err)
		}
		if err := tensor.WriteFileTiled(tiled, x, 7); err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			path string
			read func(string) (*ref.COO, error)
		}{
			{tns, func(p string) (*ref.COO, error) { return ref.ReadTNS(p, 1) }},
			{tns, func(p string) (*ref.COO, error) { return ref.ReadTNS(p, 3) }},
			{tns, func(p string) (*ref.COO, error) { return ref.ReadTNS(p, 200) }}, // more parts than lines
			{bten, ref.ReadBTEN}, {tiled, ref.ReadBTEN},
		} {
			got, err := c.read(c.path)
			if err != nil {
				t.Fatalf("%s: %v", c.path, err)
			}
			if !reflect.DeepEqual(got.Inds, x.Inds) || !reflect.DeepEqual(got.Vals, x.Vals) {
				t.Errorf("%s: order-%d tensor read back differs from what was written", filepath.Base(c.path), len(dims))
			}
			if c.path != tns && !reflect.DeepEqual(got.Dims, x.Dims) {
				t.Errorf("%s: dims %v, want %v", filepath.Base(c.path), got.Dims, x.Dims)
			}
		}
	}
}

// A flipped payload byte or a cut-off file must be an error, never a
// tensor: the load ratio is only meaningful if both readers check.
func TestReadBTENRejectsCorruption(t *testing.T) {
	x := tiny(t, []tensor.Index{9, 7, 5}, 60)
	dir := t.TempDir()
	for name, write := range map[string]func(string) error{
		"v2.bten": func(p string) error { return tensor.WriteFile(p, x) },
		"v3.bten": func(p string) error { return tensor.WriteFileTiled(p, x, 7) },
	} {
		path := filepath.Join(dir, name)
		if err := write(path); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		flipped := append([]byte(nil), data...)
		flipped[len(flipped)-9] ^= 0x40
		for what, bad := range map[string][]byte{"bit flip": flipped, "truncation": data[:len(data)-5], "empty": nil} {
			if err := os.WriteFile(path, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := ref.ReadBTEN(path); err == nil {
				t.Errorf("%s: %s was accepted", name, what)
			}
		}
	}
}

func TestSortAndFiberPtr(t *testing.T) {
	x := asRef(tiny(t, []tensor.Index{5, 4, 6, 3}, 80)).Clone()
	for mode := 0; mode < x.Order(); mode++ {
		perm := ref.ModeLast(x.Order(), mode)
		ref.Sort(x, perm)
		for i := 1; i < x.NNZ(); i++ {
			for _, n := range perm {
				if x.Inds[n][i-1] != x.Inds[n][i] {
					if x.Inds[n][i-1] > x.Inds[n][i] {
						t.Fatalf("mode %d: non-zeros %d and %d out of order", mode, i-1, i)
					}
					break
				}
			}
		}
		ptr := ref.FiberPtr(x, mode)
		if ptr[0] != 0 || ptr[len(ptr)-1] != int64(x.NNZ()) {
			t.Fatalf("mode %d: fiber pointers span [%d,%d], want [0,%d]", mode, ptr[0], ptr[len(ptr)-1], x.NNZ())
		}
		for f := 0; f+1 < len(ptr); f++ {
			if ptr[f] >= ptr[f+1] {
				t.Fatalf("mode %d: empty or inverted fiber %d", mode, f)
			}
			for i := ptr[f] + 1; i < ptr[f+1]; i++ {
				for n := range x.Inds {
					if n != mode && x.Inds[n][i] != x.Inds[n][ptr[f]] {
						t.Fatalf("mode %d: fiber %d mixes coordinates in mode %d", mode, f, n)
					}
				}
			}
		}
	}
}

// FiberCuts must hand every fiber to exactly one goroutine, in order,
// whatever the worker count, and balance non-zeros rather than fibers.
func TestFiberCutsCoverEveryFiberOnce(t *testing.T) {
	ptr := []int64{0, 90, 92, 93, 95, 96, 100} // one long fiber, five short ones
	for _, workers := range []int{1, 2, 3, 6, 9} {
		cuts := ref.FiberCuts(ptr, workers)
		if len(cuts) != workers+1 || cuts[0] != 0 || cuts[workers] != len(ptr)-1 {
			t.Fatalf("%d workers: cuts %v do not span the fibers", workers, cuts)
		}
		hits := make([]int32, len(ptr)-1)
		ref.StaticAt(cuts, func(_, lo, hi int) {
			for f := lo; f < hi; f++ {
				atomic.AddInt32(&hits[f], 1)
			}
		})
		for f, n := range hits {
			if n != 1 {
				t.Errorf("%d workers: fiber %d visited %d times (cuts %v)", workers, f, n, cuts)
			}
		}
	}
	if cuts := ref.FiberCuts(ptr, 2); cuts[1] != 1 {
		t.Errorf("two workers split at fiber %d, want 1: the long fiber is half the work", cuts[1])
	}
}
