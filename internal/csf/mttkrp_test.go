package csf

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The recursive scalar loop the tree plan replaced, kept as the oracle:
// oracleAccumulate is csf.accumulate as it stood, oracleRoot and
// oracleTasks the bodies of MttkrpRoot and MttkrpRootBalanced around it,
// on one goroutine.

func oracleAccumulate(c *CSF, level, lo, hi int, mats []*tensor.Matrix, scratch []tensor.Value, r int, dst []tensor.Value) {
	leaf := c.Order() - 1
	u := mats[c.ModeOrder[level]]
	if level == leaf {
		for node := lo; node < hi; node++ {
			v := c.Vals[node]
			urow := u.Row(int(c.FIds[level][node]))
			for i := 0; i < r; i++ {
				dst[i] += v * urow[i]
			}
		}
		return
	}
	buf := scratch[(level-1)*r : level*r]
	for node := lo; node < hi; node++ {
		for i := range buf {
			buf[i] = 0
		}
		oracleAccumulate(c, level+1, int(c.FPtr[level][node]), int(c.FPtr[level][node+1]), mats, scratch, r, buf)
		urow := u.Row(int(c.FIds[level][node]))
		for i := 0; i < r; i++ {
			dst[i] += urow[i] * buf[i]
		}
	}
}

func oracleRoot(c *CSF, mats []*tensor.Matrix, r int) *tensor.Matrix {
	out := tensor.NewMatrix(int(c.Dims[c.ModeOrder[0]]), r)
	scratch := make([]tensor.Value, (c.Order()-1)*r)
	for root := 0; root < c.NumNodes(0); root++ {
		oracleAccumulate(c, 1, int(c.FPtr[0][root]), int(c.FPtr[0][root+1]), mats, scratch, r, out.Row(int(c.FIds[0][root])))
	}
	return out
}

// oracleTasks sums every task in a private vector and adds it to the
// root's row, task by task in list order — what one worker does.
func oracleTasks(c *CSF, tasks []task, mats []*tensor.Matrix, r int) *tensor.Matrix {
	out := tensor.NewMatrix(int(c.Dims[c.ModeOrder[0]]), r)
	scratch := make([]tensor.Value, (c.Order()-1)*r)
	local := make([]tensor.Value, r)
	for _, k := range tasks {
		clear(local)
		oracleAccumulate(c, 1, int(k.lo), int(k.hi), mats, scratch, r, local)
		row := out.Row(int(c.FIds[0][k.root]))
		for i := range local {
			row[i] += local[i]
		}
	}
	return out
}

// walkPaths counts the entries the plan's walk hands to chains and to
// fibers, unit by unit as run visits them, by walk's own tests.
func walkPaths(p *MttkrpPlan) (chains, fibers int) {
	t := &p.t
	fptr := t.Ptr[p.leaf-1]
	single := func(f0, f1 int64) bool { return p.empty < 0 && fptr[f1]-fptr[f0] == f1-f0 }
	var visit func(level int, lo, hi int64)
	visit = func(level int, lo, hi int64) {
		switch {
		case level == p.leaf:
			fibers++
		case level == p.leaf-1 && single(lo, hi):
			chains++
		case level == p.leaf-1:
			fibers++
		default:
			for node := lo; node < hi; node++ {
				if f0, f1 := t.Ptr[level][node], t.Ptr[level][node+1]; level == p.leaf-2 && single(f0, f1) {
					chains++
				} else {
					visit(level+1, f0, f1)
				}
			}
		}
	}
	for i := 0; i < p.units; i++ {
		if p.tasks != nil {
			visit(1, p.tasks[i].lo, p.tasks[i].hi)
		} else {
			visit(1, t.Ptr[0][i], t.Ptr[0][i+1])
		}
	}
	return chains, fibers
}

// TestMixedChainsTakeBothPaths: on the mixed-chain trees at their natural
// mode order, walk sends some entries to chains and some to fibers — at
// order 3 per root, at order 4 and 5 per node above the fibers — also when
// balanced tasks split every root into single children.
func TestMixedChainsTakeBothPaths(t *testing.T) {
	seen := 0
	for _, tc := range tensortest.MttkrpCases(t) {
		if !strings.HasPrefix(tc.Name, "mixed-chains-") {
			continue
		}
		seen++
		c, err := FromCOO(tc.X, nil)
		if err != nil {
			t.Fatal(err)
		}
		p, err := PrepareMttkrp(c.Tree(), 8)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := p.ExecuteSeq(tensortest.SignedFactors(tc.X, 8, 1)); err != nil || p.empty >= 0 {
			t.Fatalf("%s: execution returned %v and left empty = %d; a CSF tree has no empty fiber", tc.Name, err, p.empty)
		}
		if chains, fibers := walkPaths(p); chains == 0 || fibers == 0 {
			t.Errorf("%s: %d entries to chains, %d to fibers; want both", tc.Name, chains, fibers)
		}
		p.tasks = c.buildTasks(1)
		p.units = len(p.tasks)
		if chains, fibers := walkPaths(p); chains == 0 || fibers == 0 {
			t.Errorf("%s, budget 1: %d entries to chains, %d to fibers; want both", tc.Name, chains, fibers)
		}
	}
	if seen != 3 {
		t.Fatalf("found %d mixed-chain cases, want orders 3, 4 and 5", seen)
	}
}

// rootFirst is the mode order with mode at the root, the rest ascending.
func rootFirst(order, mode int) []int {
	return append([]int{mode}, tensor.OtherModes(order, mode)...)
}

// TestMttkrpPlanErrors: every operand the plan cannot run on is an
// ErrMttkrp from prepare or execute — an order-1 tree used to panic in
// MttkrpRoot's parallel loop.
func TestMttkrpPlanErrors(t *testing.T) {
	x := randTensor(31, []tensor.Index{6, 5, 4}, 40)
	c, _ := FromCOO(x, nil)
	line, _ := FromCOO(randTensor(32, []tensor.Index{50}, 20), nil)
	good := tensortest.SignedFactors(x, 4, 1)
	with := func(n int, u *tensor.Matrix) []*tensor.Matrix {
		mats := append([]*tensor.Matrix(nil), good...)
		mats[n] = u
		return mats
	}
	for name, run := range map[string]func() (*tensor.Matrix, error){
		"order 1, MttkrpRoot": func() (*tensor.Matrix, error) {
			return line.MttkrpRoot([]*tensor.Matrix{nil}, parallel.Options{})
		},
		"order 1, MttkrpRootBalanced": func() (*tensor.Matrix, error) {
			return line.MttkrpRootBalanced([]*tensor.Matrix{nil}, parallel.Options{}, 0)
		},
		"order 1, prepare": func() (*tensor.Matrix, error) { _, err := PrepareMttkrp(line.Tree(), 4); return nil, err },
		"R = 0":            func() (*tensor.Matrix, error) { _, err := PrepareMttkrp(c.Tree(), 0); return nil, err },
		"no factors":       func() (*tensor.Matrix, error) { return c.MttkrpRoot(make([]*tensor.Matrix, 3), parallel.Options{}) },
		"factor count":     func() (*tensor.Matrix, error) { return c.MttkrpRoot(good[:2], parallel.Options{}) },
		"nil factor":       func() (*tensor.Matrix, error) { return c.MttkrpRoot(with(2, nil), parallel.Options{}) },
		"factor rows": func() (*tensor.Matrix, error) {
			return c.MttkrpRoot(with(1, tensor.NewMatrix(9, 4)), parallel.Options{})
		},
		"factor columns": func() (*tensor.Matrix, error) {
			return c.MttkrpRoot(with(2, tensor.NewMatrix(4, 5)), parallel.Options{})
		},
	} {
		if out, err := run(); !errors.Is(err, ErrMttkrp) || out != nil {
			t.Errorf("%s: returned (%v, %v), want (nil, ErrMttkrp)", name, out != nil, err)
		}
	}
	// The output mode's factor is not an operand: nil or of any shape.
	for _, u := range []*tensor.Matrix{nil, tensor.NewMatrix(1, 9)} {
		if _, err := c.MttkrpRoot(with(0, u), parallel.Options{}); err != nil {
			t.Errorf("output-mode factor %v: %v", u, err)
		}
	}
}

// TestMttkrpPlanSurvivesCancellation: a cancelled context yields no
// matrix, and the plan's next execution is complete — the partial sums
// the cancelled one left are cleared, not added to.
func TestMttkrpPlanSurvivesCancellation(t *testing.T) {
	x := hubTensor(41)
	c, err := FromCOO(x, nil)
	if err != nil {
		t.Fatal(err)
	}
	const r = 13
	mats := tensortest.SignedFactors(x, r, 2)
	p, err := PrepareMttkrp(c.Tree(), r)
	if err != nil {
		t.Fatal(err)
	}
	want := oracleRoot(c, mats, r)
	for round := 0; round < 2; round++ {
		// Cancel after the loop has started, so partial sums exist.
		ctx, cancel := context.WithCancel(context.Background())
		parallel.SetChunkHook(func(int) { cancel() })
		out, err := p.ExecuteOMP(mats, parallel.Options{Threads: 1, Chunk: 5, Ctx: ctx})
		parallel.SetChunkHook(nil)
		if !errors.Is(err, parallel.ErrDeadline) || out != nil {
			t.Fatalf("cancelled execution returned (%v, %v), want (nil, ErrDeadline)", out != nil, err)
		}
		got, err := p.ExecuteOMP(mats, parallel.Options{Threads: 1})
		if err != nil {
			t.Fatal(err)
		}
		tensortest.SameBits(t, "execution after a cancelled one", got, want)
	}
}
