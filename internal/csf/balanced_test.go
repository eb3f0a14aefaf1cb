package csf

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

func hubTensor(seed int64) *tensor.COO {
	// Mode 0 is a heavy hub: most non-zeros share a few roots, the case
	// that starves subtree-parallel Mttkrp.
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandomCOOSkewed([]tensor.Index{500, 200, 200}, 6000, rng)
}

func mttkrpMats(x *tensor.COO, r int, seed int64) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(seed))
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	return mats
}

func matricesClose(t *testing.T, a, b *tensor.Matrix, label string) {
	t.Helper()
	if a.Rows != b.Rows || a.Cols != b.Cols {
		t.Fatalf("%s: shape mismatch", label)
	}
	for i := range a.Data {
		x, y := float64(a.Data[i]), float64(b.Data[i])
		if math.Abs(x-y) > 2e-3*math.Max(1, math.Max(math.Abs(x), math.Abs(y))) {
			t.Fatalf("%s: element %d differs: %v vs %v", label, i, x, y)
		}
	}
}

func TestMttkrpRootBalancedMatchesPlain(t *testing.T) {
	x := hubTensor(1)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	mats := mttkrpMats(x, 8, 2)
	want, err := c.MttkrpRoot(mats, parallel.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, budget := range []int64{0, 1, 16, 100, 1 << 30} {
		got, err := c.MttkrpRootBalanced(mats, parallel.Options{Schedule: parallel.Dynamic, Threads: 2}, budget)
		if err != nil {
			t.Fatal(err)
		}
		matricesClose(t, got, want, "balanced vs plain")
		// A budget that splits no root leaves one task per root, each
		// committing plainly into the row it owns: the plain kernel's bits.
		if st := c.ComputeTaskStats(budget); st.Tasks == st.Roots {
			tensortest.SameBits(t, fmt.Sprintf("balanced, budget %d, vs plain", budget), got, want)
		}
	}
}

func TestMttkrpRootBalancedMatchesCOOReference(t *testing.T) {
	x := hubTensor(3)
	c, err := FromCOO(x, []int{0, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	mats := mttkrpMats(x, 4, 4)
	want, err := core.Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MttkrpRootBalanced(mats, parallel.Options{}, 50)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, want, "balanced vs COO reference")
}

func TestBalancedTasksBoundHubs(t *testing.T) {
	x := hubTensor(5)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	unbounded := c.ComputeTaskStats(1 << 30)
	if unbounded.Tasks != unbounded.Roots {
		t.Fatalf("unbounded budget should give one task per root: %d vs %d", unbounded.Tasks, unbounded.Roots)
	}
	bounded := c.ComputeTaskStats(64)
	if bounded.Tasks <= bounded.Roots {
		t.Fatalf("hub tensor with budget 64 should split roots: %d tasks for %d roots", bounded.Tasks, bounded.Roots)
	}
	// The heaviest task must be far below the heaviest root's subtree.
	if bounded.MaxLeaves >= unbounded.MaxLeaves {
		t.Fatalf("balancing did not reduce the heaviest task: %d vs %d", bounded.MaxLeaves, unbounded.MaxLeaves)
	}
	// Budget is respected except for single overweight children.
	if bounded.MaxLeaves > 10*64 {
		t.Fatalf("task weight %d wildly exceeds budget", bounded.MaxLeaves)
	}
}

func TestMttkrpRootBalancedErrors(t *testing.T) {
	x := hubTensor(6)
	c, _ := FromCOO(x, nil)
	if _, err := c.MttkrpRootBalanced([]*tensor.Matrix{nil}, parallel.Options{}, 0); err == nil {
		t.Fatal("expected matrix-count error")
	}
	mats := mttkrpMats(x, 4, 7)
	mats[1] = tensor.NewMatrix(3, 4)
	if _, err := c.MttkrpRootBalanced(mats, parallel.Options{}, 0); err == nil {
		t.Fatal("expected shape error")
	}
	mats[1] = nil
	if _, err := c.MttkrpRootBalanced(mats, parallel.Options{}, 0); err == nil {
		t.Fatal("expected nil-matrix error")
	}
}

// TestMttkrpCancelledContext: a cancelled opt.Ctx stops the root loop
// with partial sums in the output, so both root-mode kernels must hand
// back parallel.ErrDeadline and no matrix.
func TestMttkrpCancelledContext(t *testing.T) {
	x := hubTensor(11)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	mats := mttkrpMats(x, 4, 12)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	opt := parallel.Options{Ctx: ctx}
	for name, run := range map[string]func() (*tensor.Matrix, error){
		"MttkrpRoot":         func() (*tensor.Matrix, error) { return c.MttkrpRoot(mats, opt) },
		"MttkrpRootBalanced": func() (*tensor.Matrix, error) { return c.MttkrpRootBalanced(mats, opt, 64) },
	} {
		if out, err := run(); !errors.Is(err, parallel.ErrDeadline) || out != nil {
			t.Errorf("%s under a cancelled context returned (%v, %v), want (nil, ErrDeadline)", name, out != nil, err)
		}
	}
}

func TestLeafRange(t *testing.T) {
	// Third-order: leaf range of the full root span must cover all nnz.
	x := hubTensor(8)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := c.leafRange(0, 0, int64(c.NumNodes(0)))
	if lo != 0 || hi != int64(c.NNZ()) {
		t.Fatalf("full leaf range [%d,%d), want [0,%d)", lo, hi, c.NNZ())
	}
	// Per-root ranges partition the leaves.
	var total int64
	for root := 0; root < c.NumNodes(0); root++ {
		l, h := c.leafRange(0, int64(root), int64(root+1))
		if h <= l {
			t.Fatal("empty root subtree")
		}
		total += h - l
	}
	if total != int64(c.NNZ()) {
		t.Fatalf("root subtrees cover %d leaves, want %d", total, c.NNZ())
	}
}

func TestBalancedOrder4(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandomCOOSkewed([]tensor.Index{300, 40, 40, 20}, 3000, rng)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	mats := mttkrpMats(x, 4, 10)
	want, err := core.Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c.MttkrpRootBalanced(mats, parallel.Options{Schedule: parallel.Guided}, 32)
	if err != nil {
		t.Fatal(err)
	}
	matricesClose(t, got, want, "order-4 balanced")
}
