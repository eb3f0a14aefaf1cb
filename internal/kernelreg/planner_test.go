package kernelreg

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

func plannerTensor() *tensor.COO {
	return tensor.RandomCOO([]tensor.Index{30, 25, 20}, 400, rand.New(rand.NewSource(11)))
}

// TestConvCostsTable pins the cost table's lookup order: a measured
// edge beats its prior, an unmeasured edge falls back to the static
// prior, an unknown edge to the FromCOO prior, and Observe folds
// repeated measurements into a moving average rather than keeping only
// the last sample.
func TestConvCostsTable(t *testing.T) {
	c := NewConvCosts()
	if c.Measured(EdgeCSFFromCOO) {
		t.Fatal("fresh table claims a measurement")
	}
	if got := c.Estimate(EdgeBlockRoot); got != defaultCostPriors[EdgeBlockRoot] {
		t.Fatalf("unmeasured estimate %g, want prior %g", got, defaultCostPriors[EdgeBlockRoot])
	}
	if got := c.Estimate("no.such.edge"); got != defaultCostPriors[EdgeCSFFromCOO] {
		t.Fatalf("unknown-edge estimate %g, want FromCOO prior %g", got, defaultCostPriors[EdgeCSFFromCOO])
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
	if !c.Measured(EdgeCSFFromCOO) {
		t.Fatal("observed edge not marked measured")
	}
	if snap := c.Snapshot(); snap[EdgeCSFFromCOO] != 20 {
		t.Fatalf("snapshot %v missing the measurement", snap)
	}
}

// TestPlannerPicksCheaperPath injects synthetic cost tables and checks
// the planner picks the measured-cheapest conversion path for each
// scenario, reporting the choice in the plan string. Each scenario uses
// a fresh workbench so cached hierarchies and resident CSF trees from
// one case cannot leak into the next.
func TestPlannerPicksCheaperPath(t *testing.T) {
	mo := []int{0, 1, 2}
	cases := []struct {
		name    string
		format  roofline.Format
		seedCSF bool // make a CSF tree resident before planning
		costs   map[string]float64
		want    string
	}{
		{
			name:   "bCSF direct when build is cheap",
			format: roofline.BCSF,
			costs: map[string]float64{
				EdgeBuild + ":bCSF": 1,
				EdgeCSFFromCOO:      1000,
				EdgeBlockRoot:       1000,
			},
			want: "direct:" + EdgeBuild + ":bCSF",
		},
		{
			name:   "bCSF via CSF when sort dominates build",
			format: roofline.BCSF,
			costs: map[string]float64{
				EdgeBuild + ":bCSF": 1000,
				EdgeCSFFromCOO:      1,
				EdgeBlockRoot:       1,
			},
			want: "via-csf:" + EdgeCSFFromCOO + "+" + EdgeBlockRoot,
		},
		{
			name:    "bCSF reuses a resident tree",
			format:  roofline.BCSF,
			seedCSF: true,
			costs: map[string]float64{
				EdgeBuild + ":bCSF": 1000,
				EdgeBlockRoot:       1,
			},
			want: "reuse-csf:" + EdgeBlockRoot,
		},
		{
			name:   "CSF direct when build is cheap",
			format: roofline.CSF,
			costs: map[string]float64{
				EdgeBuild + ":CSF": 1,
				EdgeCSFFromCOO:     1000,
			},
			want: "direct:" + EdgeBuild + ":CSF",
		},
		{
			name:   "CSF via FromCOO when it measures cheaper",
			format: roofline.CSF,
			costs: map[string]float64{
				EdgeBuild + ":CSF": 1000,
				EdgeCSFFromCOO:     1,
			},
			want: "via-csf:" + EdgeCSFFromCOO,
		},
		{
			name:    "CSF wraps a resident tree for free",
			format:  roofline.CSF,
			seedCSF: true,
			costs: map[string]float64{
				EdgeBuild + ":CSF": 1, // even a cheap direct build loses to a free wrap
				EdgeCSFFromCOO:     1000,
			},
			want: "reuse-csf",
		},
		{
			name:   "COO has no CSF shortcut",
			format: roofline.COO,
			costs: map[string]float64{
				EdgeCSFFromCOO: 0.001, // irrelevant however cheap
			},
			want: "direct:" + EdgeBuild + ":COO",
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			wb := NewWorkbench(plannerTensor(), DefaultConfig())
			if tc.seedCSF {
				if _, err := wb.CSF(mo, "seed"); err != nil {
					t.Fatal(err)
				}
			}
			for edge, ns := range tc.costs {
				wb.Costs().Set(edge, ns)
			}
			h, plan, err := wb.Hier(tc.format, mo, "test")
			if err != nil {
				t.Fatal(err)
			}
			if plan != tc.want {
				t.Fatalf("plan = %q, want %q", plan, tc.want)
			}
			if err := h.Validate(); err != nil {
				t.Fatalf("planned hierarchy invalid: %v", err)
			}
			if h.NNZ() < wb.X.NNZ() {
				t.Fatalf("planned hierarchy holds %d values, want >= %d", h.NNZ(), wb.X.NNZ())
			}
			// A second request must hit the hierarchy cache, whatever the
			// table says now.
			wb.Costs().Set(EdgeBuild+":"+tc.format.String(), 1e9)
			h2, plan2, err := wb.Hier(tc.format, mo, "test")
			if err != nil {
				t.Fatal(err)
			}
			if plan2 != "cached" || h2 != h {
				t.Fatalf("second request: plan %q (want cached), same hierarchy %v", plan2, h2 == h)
			}
		})
	}
}

// TestPlannerLearnsFromConversions checks the feedback loop: executing
// a conversion populates the cost table with a measurement, so later
// plans run on observed costs rather than priors.
func TestPlannerLearnsFromConversions(t *testing.T) {
	wb := NewWorkbench(plannerTensor(), DefaultConfig())
	if _, _, err := wb.Hier(roofline.BCSF, []int{0, 1, 2}, "test"); err != nil {
		t.Fatal(err)
	}
	// The priors put FromCOO + root split below the direct build, so the
	// cold bCSF path goes via CSF; both its edges must now be measured.
	if !wb.Costs().Measured(EdgeCSFFromCOO) || !wb.Costs().Measured(EdgeBlockRoot) {
		t.Fatalf("via-CSF build left no measurement; table: %v", wb.Costs().Snapshot())
	}
	if _, _, err := wb.Hier(roofline.COO, []int{2, 1, 0}, "test"); err != nil {
		t.Fatal(err)
	}
	if !wb.Costs().Measured(EdgeBuild + ":COO") {
		t.Fatalf("direct build left no measurement; table: %v", wb.Costs().Snapshot())
	}
}

// TestColdPlanMatchesMeasuredPlan pins the static priors to reality on
// the three benchmark recipes: the plan a cold workbench picks for a
// tree format (priors only) must be the plan a table holding this
// host's measured edge costs picks. Each edge is measured on a fresh
// workbench whose sorted view of X is already resident — both paths pay
// the same sort when it is not, so leaving it out sharpens the
// comparison without changing its outcome — as the fastest of several
// repetitions, so scheduling noise cannot flip it.
func TestColdPlanMatchesMeasuredPlan(t *testing.T) {
	for _, name := range []string{"irrS", "regS4d", "nell2"} {
		e, err := dataset.ByID(name)
		if err != nil {
			t.Fatal(err)
		}
		x, err := dataset.Materialize(e, 20000, 3)
		if err != nil {
			t.Fatal(err)
		}
		// Mttkrp in the last mode: an order X is not already sorted by.
		mo := genericModeOrder(roofline.Mttkrp, x.Order(), x.Order()-1)
		for _, f := range []roofline.Format{roofline.BCSF, roofline.CSF} {
			_, cold, err := NewWorkbench(x, DefaultConfig()).Hier(f, mo, "cold")
			if err != nil {
				t.Fatal(err)
			}

			measured := NewConvCosts()
			for _, edge := range []string{EdgeCSFFromCOO, EdgeBuild + ":" + f.String(), EdgeBlockRoot} {
				best := math.Inf(1)
				for rep := 0; rep < 9; rep++ {
					wb := NewWorkbench(x, DefaultConfig())
					wb.Sorted(mo)
					switch edge {
					case EdgeCSFFromCOO:
						_, err = wb.CSF(mo, "measure")
					case EdgeBlockRoot:
						_, err = wb.hierViaCSF(roofline.BCSF, mo, "measure", wb.BlockBits())
					default:
						sig, _ := LevelSignature(f, x.Order(), wb.BlockBits())
						_, err = wb.buildHier(sig, mo, edge, "measure")
					}
					if err != nil {
						t.Fatal(err)
					}
					best = min(best, wb.Costs().Estimate(edge))
				}
				measured.Set(edge, best)
			}
			table := measured.Snapshot()
			wb := NewWorkbench(x, DefaultConfig())
			wb.costs = measured
			_, warm, err := wb.Hier(f, mo, "measured")
			if err != nil {
				t.Fatal(err)
			}
			if cold != warm {
				t.Errorf("%s %s: cold plan %q, but the measured table %v picks %q — re-derive defaultCostPriors",
					name, f, cold, table, warm)
			}
		}
	}
}

// TestGeneratedVariantSurfacesPlan checks the plan string rides the
// Instance out of Prepare — the hook pastabench rows and pastad's /run
// response read — and that a generic CSF kernel reuses the tree a
// hand-tuned CSF kernel already built (both order the product mode at
// the leaves, so the trees coincide).
func TestGeneratedVariantSurfacesPlan(t *testing.T) {
	wb := NewWorkbench(plannerTensor(), DefaultConfig())
	ttm, err := Lookup(roofline.Ttm, roofline.CSF, OMP)
	if err != nil {
		t.Fatal(err)
	}
	if !ttm.Generated {
		t.Fatalf("%s: expected a generated variant", ttm)
	}
	inst, err := ttm.Prepare(wb, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Cold workbench: by the priors, FromCOO + wrap beats the direct build.
	if inst.Plan != "via-csf:"+EdgeCSFFromCOO {
		t.Fatalf("cold plan = %q, want the via-CSF build", inst.Plan)
	}

	// On a fresh workbench, run the hand-tuned Ttv/CSF first: its tree
	// (product mode at the leaf) is exactly what generic Ttm wants.
	wb2 := NewWorkbench(plannerTensor(), DefaultConfig())
	ttv, err := Lookup(roofline.Ttv, roofline.CSF, OMP)
	if err != nil {
		t.Fatal(err)
	}
	if ttv.Generated {
		t.Fatalf("%s: expected the hand-tuned fast path", ttv)
	}
	if _, err := ttv.Prepare(wb2, 1); err != nil {
		t.Fatal(err)
	}
	inst2, err := ttm.Prepare(wb2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if inst2.Plan != "reuse-csf" {
		t.Fatalf("plan after hand-tuned CSF prep = %q, want reuse-csf", inst2.Plan)
	}
	if err := inst2.Run(context.Background()); err != nil {
		t.Fatal(err)
	}
	ref, err := wb2.Reference(context.Background(), roofline.Ttm, 1)
	if err != nil {
		t.Fatal(err)
	}
	if dev := Compare(inst2.Output(), ref); dev > agreementTol {
		t.Fatalf("reused-tree output deviates %g from reference", dev)
	}
}
