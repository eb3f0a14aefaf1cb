package levels

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// TestFiberPlansOnBlockedProductMode drives the one hierarchy shape
// whose leaf level is not by itself core's fiber view: HiCOOSig keeps
// the product mode's coarse bits above the leaf, so the product-index
// column has to be materialised, and its fibers come block-major — one
// output coordinate owns a fiber in every product-mode block it touches.
func TestFiberPlansOnBlockedProductMode(t *testing.T) {
	const bits, r = 2, 4
	x := testTensor(t, []tensor.Index{40, 36, 50}, 900, 23)
	for mode := 0; mode < x.Order(); mode++ {
		what := fmt.Sprintf("mode %d", mode)
		mo := tensor.ModeOrder(x.Order(), mode)
		h, err := Build(x, HiCOOSig(x.Order(), bits), mo)
		if err != nil {
			t.Fatal(what, err)
		}
		view, cols, err := leafFibers(h, mode)
		if err != nil {
			t.Fatal(what, err)
		}
		last := h.Depth() - 1
		if &view.KInd[0] == &h.Crd[last][0] {
			t.Fatalf("%s: product indices alias the leaf level, which holds the low %d bits only", what, bits)
		}
		// The hierarchy walk yields the leaves in storage order with
		// their full coordinates: the column and the skeleton must agree
		// with it, entry for entry and fiber for fiber.
		full := h.ToCOO()
		for f := 0; f+1 < len(view.Fptr); f++ {
			for e := view.Fptr[f]; e < view.Fptr[f+1]; e++ {
				if view.KInd[e] != full.Inds[mode][e] {
					t.Fatalf("%s: non-zero %d has product index %d, want %d", what, e, view.KInd[e], full.Inds[mode][e])
				}
				for _, n := range tensor.OtherModes(x.Order(), mode) {
					if cols[n][f] != full.Inds[n][e] {
						t.Fatalf("%s: fiber %d has index %d in mode %d, its non-zero %d has %d", what, f, cols[n][f], n, e, full.Inds[n][e])
					}
				}
			}
		}

		rng := rand.New(rand.NewSource(int64(40 + mode)))
		tv, err := PrepareTtv(h, mode)
		if err != nil {
			t.Fatal(what, err)
		}
		wantTv, err := core.PrepareTtv(x, mode)
		if err != nil {
			t.Fatal(what, err)
		}
		if tv.NumFibers() <= wantTv.NumFibers() {
			t.Fatalf("%s: %d block-major fibers for %d output coordinates; the test tensor must split some", what, tv.NumFibers(), wantTv.NumFibers())
		}
		tm, err := PrepareTtm(h, mode, r)
		if err != nil {
			t.Fatal(what, err)
		}
		wantTm, err := core.PrepareTtm(x, mode, r)
		if err != nil {
			t.Fatal(what, err)
		}
		// Two rounds with fresh operands: the plan-owned outputs are
		// refilled, not accumulated into.
		for round := 0; round < 2; round++ {
			v := tensor.RandomVector(int(x.Dims[mode]), rng)
			u := tensor.NewMatrix(int(x.Dims[mode]), r)
			u.Randomize(rng)
			refTv, err := wantTv.ExecuteSeq(v)
			if err != nil {
				t.Fatal(what, err)
			}
			refTm, err := wantTm.ExecuteSeq(u)
			if err != nil {
				t.Fatal(what, err)
			}
			if _, err := tv.ExecuteSeq(v); err != nil {
				t.Fatal(what, err)
			}
			mapsClose(t, cooMap(tv.Out), cooMap(refTv), 2e-3, what+" Ttv seq")
			if _, err := tm.ExecuteSeq(u); err != nil {
				t.Fatal(what, err)
			}
			mapsClose(t, cooMap(tm.Out.ToCOO()), cooMap(refTm.ToCOO()), 2e-3, what+" Ttm seq")
			for _, st := range []parallel.Strategy{parallel.Owner, parallel.Atomic, parallel.Privatized} {
				opt := parallel.Options{Threads: 3, Strategy: st}
				if _, err := tv.ExecuteOMP(v, opt); err != nil {
					t.Fatal(what, err)
				}
				mapsClose(t, cooMap(tv.Out), cooMap(refTv), 2e-3, fmt.Sprintf("%s Ttv %v", what, st))
				if _, err := tm.ExecuteOMP(u, opt); err != nil {
					t.Fatal(what, err)
				}
				mapsClose(t, cooMap(tm.Out.ToCOO()), cooMap(refTm.ToCOO()), 2e-3, fmt.Sprintf("%s Ttm %v", what, st))
			}
		}

		// Without coarse product-mode bits above the leaf the leaf level
		// is the view: nothing is copied.
		for _, sig := range []Signature{CSFSig(x.Order()), BCSFSig(x.Order(), bits)} {
			hc, err := Build(x, sig, mo)
			if err != nil {
				t.Fatal(what, err)
			}
			view, _, err := leafFibers(hc, mode)
			if err != nil {
				t.Fatal(what, err)
			}
			lastc := hc.Depth() - 1
			if &view.KInd[0] != &hc.Crd[lastc][0] || &view.Vals[0] != &hc.Vals[0] || &view.Fptr[0] != &hc.Ptr[lastc-1][0] {
				t.Fatalf("%s: %s leaf level copied instead of aliased", what, sig.Name)
			}
		}
	}
}

// TestFiberPlanContractErrors: hierarchies Ttv and Ttm cannot take
// fibers from are refused when the plan is prepared, with errors a
// caller can match.
func TestFiberPlanContractErrors(t *testing.T) {
	line := testTensor(t, []tensor.Index{300}, 40, 29)
	h1, err := Build(line, CSFSig(1), []int{0})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PrepareTtv(h1, 0); !errors.Is(err, ErrNoParentLevel) {
		t.Errorf("PrepareTtv on a single level: %v, want ErrNoParentLevel", err)
	}
	if _, err := PrepareTtm(h1, 0, 4); !errors.Is(err, ErrNoParentLevel) {
		t.Errorf("PrepareTtm on a single level: %v, want ErrNoParentLevel", err)
	}

	x := testTensor(t, []tensor.Index{10, 12, 14}, 100, 17)
	h, err := Build(x, CSFSig(3), []int{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for mode := 0; mode < 2; mode++ {
		if _, err := PrepareTtv(h, mode); !errors.Is(err, ErrLeafMode) {
			t.Errorf("PrepareTtv in mode %d with mode 2 at the leaves: %v, want ErrLeafMode", mode, err)
		}
		if _, err := PrepareTtm(h, mode, 4); !errors.Is(err, ErrLeafMode) {
			t.Errorf("PrepareTtm in mode %d with mode 2 at the leaves: %v, want ErrLeafMode", mode, err)
		}
	}
	// The operand is checked by the plan, against the product mode.
	ok, err := PrepareTtv(h, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ok.ExecuteSeq(tensor.NewVector(13)); err == nil {
		t.Error("Ttv accepted a vector shorter than the product mode")
	}
}
