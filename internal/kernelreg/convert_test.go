package kernelreg

import (
	"context"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/csf"
	"repro/internal/levels"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

func convTensor() *tensor.COO {
	return tensor.RandomCOO([]tensor.Index{30, 25, 20}, 400, rand.New(rand.NewSource(11)))
}

// TestConvCostsTable pins the cost record: an edge never taken reads 0,
// and Observe folds repeated measurements into a moving average rather
// than keeping only the last sample.
func TestConvCostsTable(t *testing.T) {
	c := NewConvCosts()
	if got := c.Estimate(EdgeCSFFromCOO); got != 0 {
		t.Fatalf("unmeasured estimate %g, want 0", got)
	}
	// 1000 nnz in 10µs → 10 ns/nnz; then 1000 nnz in 30µs → 30 ns/nnz;
	// the EWMA (α=0.5) lands at 20.
	c.Observe(EdgeCSFFromCOO, 1000, 10*time.Microsecond)
	c.Observe(EdgeCSFFromCOO, 1000, 30*time.Microsecond)
	if got := c.Estimate(EdgeCSFFromCOO); got != 20 {
		t.Fatalf("EWMA estimate %g, want 20", got)
	}
	c.Observe(EdgeCSFFromCOO, 0, time.Second) // zero nnz: ignored
	if got := c.Estimate(EdgeCSFFromCOO); got != 20 {
		t.Fatalf("zero-nnz observation changed estimate to %g", got)
	}
	if snap := c.Snapshot(); len(snap) != 1 || snap[EdgeCSFFromCOO] != 20 {
		t.Fatalf("snapshot %v, want only the one measured edge", snap)
	}
}

// TestPlannerLearnsFromConversions checks that executing a conversion
// records its cost: a bCSF hierarchy builds the CSF tree and splits its
// root, so both edges are measured afterwards.
func TestPlannerLearnsFromConversions(t *testing.T) {
	wb := NewWorkbench(convTensor(), DefaultConfig())
	h, err := wb.Hier(roofline.BCSF, []int{0, 1, 2}, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := h.Validate(); err != nil {
		t.Fatal(err)
	}
	snap := wb.Costs().Snapshot()
	if _, ok := snap[EdgeCSFFromCOO]; !ok {
		t.Fatalf("tree build left no measurement; record: %v", snap)
	}
	if _, ok := snap[EdgeBlockRoot]; !ok {
		t.Fatalf("root split left no measurement; record: %v", snap)
	}
}

// firstUnshared reports the first level array of h below the root that is
// not the same array as c's at that level ("" when all are). A bCSF
// hierarchy has one level more than the tree: the root's coarse split.
func firstUnshared(h *levels.Hierarchy, c *csf.CSF) string {
	d := h.Depth() - c.Order()
	for l := 1; l < c.Order(); l++ {
		if &h.Crd[l+d][0] != &c.FIds[l][0] {
			return fmt.Sprintf("crd of tree level %d", l)
		}
	}
	for l := 0; l < c.Order()-1; l++ {
		if &h.Ptr[l+d][0] != &c.FPtr[l][0] {
			return fmt.Sprintf("ptr of tree level %d", l)
		}
	}
	if &h.Vals[0] != &c.Vals[0] {
		return "vals"
	}
	return ""
}

// TestTreeHierarchiesAliasCachedCSF pins the one conversion path of the
// tree formats: whatever the cost record holds — here a tree build
// priced at an hour per non-zero — every generic tree cell's hierarchy
// is the workbench's cached CSF tree of its mode order (wrapped, or with
// its root split), sharing each array below the root.
func TestTreeHierarchiesAliasCachedCSF(t *testing.T) {
	x := convTensor()
	wb := NewWorkbench(x, DefaultConfig())
	wb.Costs().Observe(EdgeCSFFromCOO, 1, time.Hour)
	for _, kf := range []struct {
		k roofline.Kernel
		f roofline.Format
	}{{roofline.Ttm, roofline.CSF}, {roofline.Ttv, roofline.BCSF}, {roofline.Ttm, roofline.BCSF}, {roofline.Mttkrp, roofline.BCSF}} {
		v, err := Lookup(kf.k, kf.f, OMP)
		if err != nil {
			t.Fatal(err)
		}
		for mode := 0; mode < x.Order(); mode++ {
			if _, err := v.Prepare(wb, mode); err != nil {
				t.Fatalf("%s mode %d: %v", v, mode, err)
			}
			mo := genericModeOrder(kf.k, x.Order(), mode)
			h := wb.hiers[kf.f.String()+moKey(mo)]
			if h == nil {
				t.Fatalf("%s mode %d: no cached %s hierarchy over %v", v, mode, kf.f, mo)
			}
			c, err := wb.CSF(mo, "test")
			if err != nil {
				t.Fatal(err)
			}
			if diff := firstUnshared(h, c); diff != "" {
				t.Errorf("%s mode %d: the hierarchy's %s is not the cached tree's", v, mode, diff)
			}
		}
	}
}

// TestGenericTtmReusesTtvTree checks that a generic CSF kernel runs on
// the tree a hand-tuned CSF kernel already built: Ttv and Ttm both order
// the product mode at the leaves, so the trees coincide and the
// workbench holds one.
func TestGenericTtmReusesTtvTree(t *testing.T) {
	wb := NewWorkbench(convTensor(), DefaultConfig())
	ttv, err := Lookup(roofline.Ttv, roofline.CSF, OMP)
	if err != nil {
		t.Fatal(err)
	}
	ttm, err := Lookup(roofline.Ttm, roofline.CSF, OMP)
	if err != nil {
		t.Fatal(err)
	}
	if ttv.Generated || !ttm.Generated {
		t.Fatalf("want the hand-tuned %s and the generated %s", ttv, ttm)
	}
	if _, err := ttv.Prepare(wb, 1); err != nil {
		t.Fatal(err)
	}
	inst, err := ttm.Prepare(wb, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(wb.csfs) != 1 {
		t.Fatalf("%d CSF trees after Ttv and Ttm in one mode, want 1", len(wb.csfs))
	}
	mo := genericModeOrder(roofline.Ttm, wb.X.Order(), 1)
	if diff := firstUnshared(wb.hiers[roofline.CSF.String()+moKey(mo)], wb.csfs[moKey(mo)]); diff != "" {
		t.Fatalf("generic Ttm's %s is not the Ttv tree's", diff)
	}
	if err := inst.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, err := wb.Reference(context.Background(), roofline.Ttm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev := Compare(inst.Output(), ref); dev > agreementTol {
		t.Fatalf("reused-tree output deviates %g from reference", dev)
	}
}
