package kernelreg

import (
	"math/rand"
	"testing"

	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Total is the full admission charge for a cold request.
func (f Footprint) Total() int64 { return f.Workbench + f.Instance + f.Run }

func TestMemBytesGrowsWithOperands(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{40, 40, 40}, 2000, rand.New(rand.NewSource(7)))
	wb := NewWorkbench(x, Config{})
	base := wb.MemBytes()
	if base < x.StorageBytes() {
		t.Fatalf("MemBytes() = %d, below the input tensor's %d", base, x.StorageBytes())
	}
	wb.Mats() // force the factor matrices
	withMats := wb.MemBytes()
	if withMats <= base {
		t.Fatalf("MemBytes() after Mats() = %d, want > %d", withMats, base)
	}
	wb.HX() // force the HiCOO conversion
	withHX := wb.MemBytes()
	if withHX <= withMats {
		t.Fatalf("MemBytes() after HX() = %d, want > %d", withHX, withMats)
	}
	wantDelta := wb.HX().StorageBytes()
	if got := withHX - withMats; got != wantDelta {
		t.Fatalf("HX delta = %d, want the conversion's StorageBytes %d", got, wantDelta)
	}
}

func TestEstimateFootprintShape(t *testing.T) {
	dims := []int64{100, 200, 300}
	for _, k := range roofline.Kernels {
		for _, f := range roofline.Formats {
			small := EstimateFootprint(k, f, dims, 10_000, Config{})
			big := EstimateFootprint(k, f, dims, 1_000_000, Config{})
			if small.Workbench <= 0 || small.Instance <= 0 || small.Run <= 0 {
				t.Fatalf("%s/%s: non-positive component in %+v", k, f, small)
			}
			if big.Total() <= small.Total() {
				t.Fatalf("%s/%s: footprint not monotone in nnz (%d vs %d)",
					k, f, big.Total(), small.Total())
			}
			// The Run component is a working-set estimate, not raw
			// traffic: it must stay within the resident set plus scratch.
			if small.Run > small.Workbench+small.Instance+1<<20 {
				t.Fatalf("%s/%s: Run %d exceeds resident set %d",
					k, f, small.Run, small.Workbench+small.Instance)
			}
		}
	}
}

// The estimate must land within an order of magnitude of the measured
// workbench for the operands it models — close enough to admit by.
func TestEstimateTracksMeasuredWorkbench(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{50, 60, 70}, 5000, rand.New(rand.NewSource(3)))
	wb := NewWorkbench(x, Config{})
	wb.Mats()
	measured := wb.MemBytes()
	dims := []int64{50, 60, 70}
	est := EstimateFootprint(roofline.Mttkrp, roofline.COO, dims, int64(x.NNZ()), Config{})
	if est.Workbench < measured/10 || est.Workbench > measured*10 {
		t.Fatalf("estimated workbench %d vs measured %d: off by more than 10x",
			est.Workbench, measured)
	}
}

// TestWorkbenchSortedViews pins the sorted-view cache: one view per mode
// order however many variants ask, X itself (or a view of its arrays,
// costing nothing) when the data already is in that order, and a sorted
// copy — charged once by MemBytes — when it is not.
func TestWorkbenchSortedViews(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{40, 40, 40}, 2000, rand.New(rand.NewSource(9)))
	x.SortNatural()
	wb := NewWorkbench(x, Config{})
	base := wb.MemBytes()
	if wb.Sorted([]int{0, 1, 2}) != x {
		t.Fatal("a tensor known to be in natural order must be its own natural view")
	}
	if wb.MemBytes() != base {
		t.Fatal("a view of X's own arrays must not be charged")
	}
	s := wb.FiberSorted(0)
	if s == x || !s.IsSortedBy([]int{1, 2, 0}) {
		t.Fatal("FiberSorted(0) must be a copy ordered with mode 0 innermost")
	}
	if wb.Sorted([]int{1, 2, 0}) != s || wb.FiberSorted(0) != s {
		t.Fatal("the same mode order must return the cached view")
	}
	if got := wb.MemBytes() - base; got != s.StorageBytes() {
		t.Fatalf("sorted copy charged %d bytes, want its StorageBytes %d", got, s.StorageBytes())
	}
	// Preparing the variants that need this order must not sort again:
	// the cache still holds exactly the two views.
	for _, kf := range []struct {
		k roofline.Kernel
		f roofline.Format
	}{{roofline.Ttv, roofline.COO}, {roofline.Ttm, roofline.COO}, {roofline.Ttv, roofline.CSF}, {roofline.Ttm, roofline.BCSF}} {
		v, err := HostVariant(kf.k, kf.f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Prepare(wb, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(wb.views) != 2 {
		t.Fatalf("%d sorted views after preparing four mode-0 variants, want 2", len(wb.views))
	}
}

// TestMemBytesChargesSharedTreeOnce pins the accounting of hierarchies
// over a cached CSF tree: a CSF wrap shares every array of the tree and
// adds nothing, and a bCSF root split adds only its split root arrays.
// Ttv/CSF, Ttm/CSF and Ttm/bCSF of one mode all order that mode at the
// leaves, so they stand on one tree.
func TestMemBytesChargesSharedTreeOnce(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{50, 60, 70}, 5000, rand.New(rand.NewSource(3)))
	for mode := 0; mode < x.Order(); mode++ {
		wb := NewWorkbench(x, DefaultConfig())
		prep := func(k roofline.Kernel, f roofline.Format) int64 {
			t.Helper()
			v, err := Lookup(k, f, OMP)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Prepare(wb, mode); err != nil {
				t.Fatalf("%s mode %d: %v", v, mode, err)
			}
			return wb.MemBytes()
		}
		afterTtv := prep(roofline.Ttv, roofline.CSF)
		afterWrap := prep(roofline.Ttm, roofline.CSF)
		if got, want := afterWrap-afterTtv, tensor.ValueBytes*int64(len(wb.TtmMat(mode).Data)); got != want {
			t.Errorf("mode %d: Ttm/CSF after Ttv/CSF added %d bytes, want only the Ttm matrix's %d", mode, got, want)
		}
		afterSplit := prep(roofline.Ttm, roofline.BCSF)
		h := wb.hiers[roofline.BCSF.String()+moKey(tensor.ModeOrder(x.Order(), mode))]
		if h == nil {
			t.Fatalf("mode %d: no cached bCSF hierarchy", mode)
		}
		split := tensor.IndexBytes*int64(len(h.Crd[0])+len(h.Crd[1])) + 8*int64(len(h.Ptr[0]))
		if got := afterSplit - afterWrap; got != split {
			t.Errorf("mode %d: Ttm/bCSF added %d bytes, want only its split root's %d", mode, got, split)
		}
	}
}
