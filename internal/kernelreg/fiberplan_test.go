package kernelreg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/roofline"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The tree cells of Ttv and Ttm are core fiber plans on the hierarchy's
// leaf level (DESIGN.md §21). These tests pin what that buys: the same
// fibers reduced in the same order as the COO plan, and no output
// rebuilt per call.

// treeFiberCells are the four cells that are fiber plans.
func treeFiberCells(t *testing.T) []*Variant {
	t.Helper()
	var cells []*Variant
	for _, f := range []roofline.Format{roofline.CSF, roofline.BCSF} {
		for _, k := range []roofline.Kernel{roofline.Ttv, roofline.Ttm} {
			v, err := Lookup(k, f, OMP)
			if err != nil {
				t.Fatal(err)
			}
			cells = append(cells, v)
		}
	}
	return cells
}

// sameFibers compares an output skeleton and its values array for array:
// equal coordinates in equal order, values equal bit for bit.
func sameFibers(t *testing.T, label string, gotInds, wantInds [][]tensor.Index, got, want []tensor.Value) {
	t.Helper()
	if len(gotInds) != len(wantInds) || len(got) != len(want) {
		t.Fatalf("%s: %d index arrays and %d values, want %d and %d", label, len(gotInds), len(got), len(wantInds), len(want))
	}
	for n := range wantInds {
		if len(gotInds[n]) != len(wantInds[n]) {
			t.Fatalf("%s: output mode %d indexes %d fibers, want %d", label, n, len(gotInds[n]), len(wantInds[n]))
		}
		for f, w := range wantInds[n] {
			if gotInds[n][f] != w {
				t.Fatalf("%s: fiber %d has index %d in output mode %d, want %d", label, f, gotInds[n][f], n, w)
			}
		}
	}
	for i, w := range want {
		if math.Float32bits(got[i]) != math.Float32bits(w) {
			t.Fatalf("%s: value %d is %v (%08x), want %v (%08x)", label, i, got[i], math.Float32bits(got[i]), w, math.Float32bits(w))
		}
	}
}

// TestTreeFiberPlansBitIdenticalToCOO: on one thread, the Run and Serial
// rungs of Ttv and Ttm on CSF and bCSF produce the COO plan's sequential
// output array for array — the tree's mode order puts the same fibers in
// the same order, and the one value computation sums them the same way.
func TestTreeFiberPlansBitIdenticalToCOO(t *testing.T) {
	// Dense operands for the 2^32-range modes of the corpus cannot be
	// allocated; R = 3 keeps the 2^20-row ones small.
	const maxDenseOperand = 1 << 22
	cfg := DefaultConfig()
	cfg.R = 3
	cfg.Sched.Threads = 1
	ctx := context.Background()
	for _, c := range tensortest.Corpus(t) {
		x := c.X
		if x.Order() < 2 {
			continue
		}
		for mode := 0; mode < x.Order(); mode++ {
			if x.Dims[mode] > maxDenseOperand {
				continue
			}
			// One workbench per mode, so the operands of the wide modes
			// do not pile up.
			wb := NewWorkbench(x, cfg)
			tv, err := core.PrepareTtv(x, mode)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tv.ExecuteSeq(wb.Vec(mode)); err != nil {
				t.Fatal(err)
			}
			tm, err := core.PrepareTtm(x, mode, wb.R())
			if err != nil {
				t.Fatal(err)
			}
			if _, err := tm.ExecuteSeq(wb.TtmMat(mode)); err != nil {
				t.Fatal(err)
			}
			for _, v := range treeFiberCells(t) {
				inst, err := v.Prepare(wb, mode)
				if err != nil {
					t.Fatalf("%s %s mode %d: %v", c.Name, v, mode, err)
				}
				for rung, run := range map[string]func(context.Context) error{"Run": inst.Run, "Serial": inst.Serial} {
					label := fmt.Sprintf("%s %s mode %d %s", c.Name, v, mode, rung)
					if err := run(ctx); err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					switch out := inst.out().(type) {
					case *tensor.COO:
						sameFibers(t, label, out.Inds, tv.Out.Inds, out.Vals, tv.Out.Vals)
					case *tensor.SemiCOO:
						sameFibers(t, label, out.Inds, tm.Out.Inds, out.Vals, tm.Out.Vals)
					default:
						t.Fatalf("%s: output is a %T", label, out)
					}
				}
			}
		}
	}
}

// TestTreeFiberPlansPrepareErrors: an order-1 tensor has no Ttv, and its
// CSF tree no level above the leaves to take fibers from; the cells say
// so when they are prepared, not when they run. (Ttm on bCSF is defined:
// the coarse root level is a parent level.)
func TestTreeFiberPlansPrepareErrors(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{500}, 40, rand.New(rand.NewSource(3)))
	wb := NewWorkbench(x, DefaultConfig())
	for _, v := range treeFiberCells(t) {
		if v.Kernel == roofline.Ttm && v.Format == roofline.BCSF {
			continue
		}
		if inst, err := v.Prepare(wb, 0); err == nil {
			t.Errorf("%s prepared on an order-1 tensor: %+v", v, inst)
		}
	}
}

// TestTreeFiberPlansAllocateNoOutputPerCall: the plan owns the output,
// so a steady-state Run of a tree cell allocates exactly what the COO
// cell's does (the parallel runtime's per-loop bookkeeping).
func TestTreeFiberPlansAllocateNoOutputPerCall(t *testing.T) {
	if tensortest.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	x := tensor.RandomCOO([]tensor.Index{200, 150, 100}, 20000, rand.New(rand.NewSource(77)))
	wb := NewWorkbench(x, DefaultConfig())
	ctx := context.Background()
	const mode = 1
	allocs := func(v *Variant) float64 {
		inst, err := v.Prepare(wb, mode)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(10, func() {
			if err := inst.Run(ctx); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, v := range treeFiberCells(t) {
		coo, err := Lookup(v.Kernel, roofline.COO, OMP)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := allocs(v), allocs(coo); got != want {
			t.Errorf("%s allocates %v times per Run, %s %v", v, got, coo, want)
		}
	}
}

// fewLongFibers is an order-3 tensor whose mode-2 fibers are three of
// about 3 000 non-zeros each: fewer fibers than workers times four, the
// shape on which a non-zero-parallel reduction would split a fiber.
func fewLongFibers() *tensor.COO {
	rng := rand.New(rand.NewSource(45))
	x := tensor.NewCOO([]tensor.Index{3, 2, 4096}, 9000)
	for i := tensor.Index(0); i < 3; i++ {
		for k, keep := range rng.Perm(4096) {
			if keep < 3000 {
				x.Append([]tensor.Index{i, tensor.Index(i % 2), tensor.Index(k)}, tensor.Value(2*rng.Float64()-1))
			}
		}
	}
	return x
}

// cellVals is the values array of a Ttv or Ttm cell's output, one
// value (Ttv) or R-row (Ttm) per fiber, whose skeleton no execution
// changes, or a Mttkrp cell's dense output matrix.
func cellVals(t *testing.T, inst *Instance) []tensor.Value {
	t.Helper()
	switch o := inst.out().(type) {
	case *tensor.COO:
		return o.Vals
	case *tensor.SemiCOO:
		return o.Vals
	case *hicoo.HiCOO:
		return o.Vals
	case *hicoo.SemiHiCOO:
		return o.Vals
	case *tensor.Matrix:
		return o.Data
	}
	t.Fatalf("output %T has no values array", inst.out())
	return nil
}

// TestOMPCellsBitsIndependentOfWorkers: every registered Ttv and Ttm omp
// cell and the COO and HiCOO Mttkrp omp cells are owner-computes. A Ttv
// or Ttm fiber is reduced by one worker in storage order; a Mttkrp output
// row is summed by one worker over a stable mode-sorted copy, in the
// order ExecuteSeq sums it. So each output equals its Serial rung's bit
// for bit at any worker count, with the Go loops and with the assembly
// bodies, and each cell reports the strategy owner. The first tensor's
// Ttv plans run over the length-grouped layout, whose fibers the workers
// split; the second tensor's Mttkrp modes 0 and 1 have fewer output rows
// than workers, and one HiCOO block-row.
func TestOMPCellsBitsIndependentOfWorkers(t *testing.T) {
	var cells []*Variant
	for _, v := range All() {
		if v.Backend == OMP && (v.Kernel == roofline.Ttv || v.Kernel == roofline.Ttm ||
			v.Kernel == roofline.Mttkrp && (v.Format == roofline.COO || v.Format == roofline.HiCOO)) {
			cells = append(cells, v)
		}
	}
	if len(cells) != 10 {
		t.Fatalf("%d Ttv/Ttm and COO/HiCOO Mttkrp omp cells, want 10", len(cells))
	}
	cases := []tensortest.Case{tensortest.Corpus(t)[0], {Name: "few-long-fibers", X: fewLongFibers()}}
	requireGroupedTtv(t, cases[0].Name, cases[0].X)
	// The workbenches leave Threads at 0, so each Run reads the global
	// worker count.
	defer parallel.SetNumThreads(parallel.NumThreads())
	ctx := context.Background()
	for _, asm := range tensortest.BodySides() {
		tensortest.WithAVX2(asm, func() {
			for _, c := range cases {
				wb := NewWorkbench(c.X, DefaultConfig())
				for _, v := range cells {
					for mode := 0; mode < c.X.Order(); mode++ {
						label := fmt.Sprintf("%s %s mode %d asm %v", c.Name, v, mode, asm)
						inst, err := v.Prepare(wb, mode)
						if err != nil {
							t.Fatal(label, err)
						}
						if err := inst.Serial(ctx); err != nil {
							t.Fatal(label, err)
						}
						want := append([]tensor.Value(nil), cellVals(t, inst)...)
						for _, threads := range []int{1, 2, 3, 7} {
							parallel.SetNumThreads(threads)
							if err := inst.Run(ctx); err != nil {
								t.Fatal(label, err)
							}
							if got := inst.Strategy(); got != "owner" {
								t.Fatalf("%s T=%d: reports strategy %q, want owner", label, threads, got)
							}
							for i, g := range cellVals(t, inst) {
								if math.Float32bits(g) != math.Float32bits(want[i]) {
									t.Fatalf("%s T=%d: value %d is %v (%08x), serial %v (%08x)", label, threads, i,
										g, math.Float32bits(g), want[i], math.Float32bits(want[i]))
								}
							}
						}
					}
				}
			}
		})
	}
}
