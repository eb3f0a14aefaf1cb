package kernelreg

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/dist"
	"repro/internal/hicoo"
	"repro/internal/roofline"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// Relations every Ttv cell must meet bit for bit, with no oracle and no
// error bound: each fiber is one reduction whose order the cell fixes, so
// scaling the values by a power of two scales every output exactly, a
// fiber's output does not depend on the other fibers of the tensor, and
// the dist ranks' owner decomposition changes nothing. The first holds
// for every Mttkrp cell too: each output element is a sum of products of
// one value each, in an order the cell fixes.

// metamorphicTensors are small tensors of the benchmark's three recipes
// (nell2 and regS4d nearly one non-zero per fiber, irrS mixed lengths)
// with signed values. Every Ttv plan of irrS's must run over the
// length-grouped layout (requireGroupedTtv), so that each relation
// covers it.
func metamorphicTensors(t *testing.T) []tensortest.Case {
	t.Helper()
	var cases []tensortest.Case
	for i, id := range []string{"nell2", "regS4d", "irrS"} {
		e, err := dataset.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		x, err := dataset.Materialize(e, 3000, 3)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(i)))
		for m := range x.Vals {
			x.Vals[m] = tensor.Value(2*rng.Float64() - 1)
		}
		if id == "irrS" {
			requireGroupedTtv(t, id, x)
		}
		cases = append(cases, tensortest.Case{Name: id, X: x})
	}
	return cases
}

// requireGroupedTtv fails t unless the COO and the HiCOO Ttv plan of x
// run over a length-grouped layout in every mode (core/ttv_layout.go).
// core exports no name for the layout, so this reads the plans'
// unexported kernel by reflection.
func requireGroupedTtv(t *testing.T, name string, x *tensor.COO) {
	t.Helper()
	for mode := 0; mode < x.Order(); mode++ {
		requireGroupedTtvMode(t, name, x, mode)
	}
}

// requireGroupedTtvMode is requireGroupedTtv on one mode.
func requireGroupedTtvMode(t *testing.T, name string, x *tensor.COO, mode int) {
	t.Helper()
	p, err := core.PrepareTtv(x, mode)
	if err != nil {
		t.Fatal(err)
	}
	hp, err := core.PrepareTtvHiCOO(x, mode, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []any{p, hp} {
		grouped := reflect.ValueOf(plan).Elem().FieldByName("k").FieldByName("grouped")
		if !grouped.IsValid() {
			t.Fatalf("%T has no kernel field k.grouped", plan)
		}
		if grouped.IsNil() {
			t.Fatalf("%s mode %d: %T runs over no length-grouped layout", name, mode, plan)
		}
	}
}

// ttvCellOutput runs cell on x in mode on one thread and returns its
// output by coordinate.
func ttvCellOutput(t *testing.T, cell *Variant, x *tensor.COO, mode int) map[string]float32 {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Sched.Threads = 1
	inst, err := cell.Prepare(NewWorkbench(x, cfg), mode)
	if err != nil {
		t.Fatalf("%s mode %d: %v", cell, mode, err)
	}
	if err := inst.Run(context.Background()); err != nil {
		t.Fatalf("%s mode %d: %v", cell, mode, err)
	}
	out := make(map[string]float32)
	for c, v := range mapCanonOf(inst.out()) {
		out[c] = float32(v)
	}
	return out
}

// TestTtvCellsScaleExactly scales a tensor's values by 2^k, k = 5 and
// −7, and checks that every output of every Ttv cell scales by exactly
// 2^k, with the Go loop and with the assembly body. No term or sum
// overflows or turns subnormal at these sizes (checked), so the relation
// holds exactly whatever order a cell sums in; a cell that summed a fiber
// in two orders across the runs would break it.
func TestTtvCellsScaleExactly(t *testing.T) {
	ks := []int{5, -7}
	for _, c := range metamorphicTensors(t) {
		ys := make([]*tensor.COO, len(ks))
		for i, k := range ks {
			scale := tensor.Value(math.Ldexp(1, k))
			ys[i] = c.X.Clone()
			for m, v := range ys[i].Vals {
				ys[i].Vals[m] = v * scale
				if a := math.Abs(float64(ys[i].Vals[m])); a < 0x1p-100 || a > 0x1p100 {
					t.Fatalf("%s: value %v scaled by 2^%d leaves the safe range", c.Name, v, k)
				}
			}
		}
		for _, asm := range tensortest.BodySides() {
			tensortest.WithAVX2(asm, func() {
				for _, cell := range kernelCells(roofline.Ttv) {
					for mode := 0; mode < c.X.Order(); mode++ {
						base := ttvCellOutput(t, cell, c.X, mode)
						for i, k := range ks {
							scale := tensor.Value(math.Ldexp(1, k))
							label := fmt.Sprintf("%s 2^%d %s mode %d asm %v", c.Name, k, cell, mode, asm)
							scaled := ttvCellOutput(t, cell, ys[i], mode)
							if len(base) != len(scaled) {
								t.Fatalf("%s: %d outputs, %d scaled", label, len(base), len(scaled))
							}
							for at, b := range base {
								if b != 0 && math.Abs(float64(b)) < 0x1p-100 {
									t.Fatalf("%s: output %s = %v is too small to scale exactly", label, at, b)
								}
								if want, got := b*scale, scaled[at]; math.Float32bits(got) != math.Float32bits(want) {
									t.Fatalf("%s: output %s scaled is %v (%08x), want %v (%08x)", label, at,
										got, math.Float32bits(got), want, math.Float32bits(want))
								}
							}
						}
					}
				}
			})
		}
	}
}

// kernelCells are the registered cells of kernel k.
func kernelCells(k roofline.Kernel) []*Variant {
	var cells []*Variant
	for _, v := range All() {
		if v.Kernel == k {
			cells = append(cells, v)
		}
	}
	return cells
}

// TestMttkrpCellsScaleExactly is TestTtvCellsScaleExactly for every
// Mttkrp cell: values scaled by 2^k, k = 5 and −7, must scale every
// element of the dense output by exactly 2^k (cellsScaleExactly).
func TestMttkrpCellsScaleExactly(t *testing.T) { cellsScaleExactly(t, roofline.Mttkrp) }

// TestTtmCellsScaleExactly is the same relation for every Ttm cell, over
// the values of its semi-sparse output, whose skeleton the scaling does
// not change.
func TestTtmCellsScaleExactly(t *testing.T) { cellsScaleExactly(t, roofline.Ttm) }

// cellsScaleExactly checks that values scaled by 2^k, k = 5 and −7, scale
// every output value of every cell of kernel k by exactly 2^k, compared
// by position, with the Go loops and with the assembly bodies. The device
// cells commit with atomic adds in the order the simulated device
// schedules its blocks, so the test runs on one P, where the device runs
// its blocks in order and every cell sums in one order; their closures
// read no cpu.AVX2, so they run on one side.
func cellsScaleExactly(t *testing.T, kernel roofline.Kernel) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ctx := context.Background()
	ks := []int{5, -7}
	cfg := DefaultConfig()
	cfg.Sched.Threads = 1
	cells := kernelCells(kernel)
	for _, c := range metamorphicTensors(t) {
		wbs := []*Workbench{NewWorkbench(c.X, cfg)}
		for _, k := range ks {
			scale := tensor.Value(math.Ldexp(1, k))
			y := c.X.Clone()
			for m, v := range y.Vals {
				y.Vals[m] = v * scale
				if a := math.Abs(float64(y.Vals[m])); a < 0x1p-100 || a > 0x1p100 {
					t.Fatalf("%s: value %v scaled by 2^%d leaves the safe range", c.Name, v, k)
				}
			}
			wbs = append(wbs, NewWorkbench(y, cfg))
		}
		for _, cell := range cells {
			for mode := 0; mode < c.X.Order(); mode++ {
				insts := make([]*Instance, len(wbs))
				for i, wb := range wbs {
					var err error
					if insts[i], err = cell.Prepare(wb, mode); err != nil {
						t.Fatalf("%s %s mode %d: %v", c.Name, cell, mode, err)
					}
				}
				sides := tensortest.BodySides()
				if cell.Backend == GPU || cell.Backend == MultiGPU {
					sides = sides[:1]
				}
				for _, asm := range sides {
					outs := make([][]tensor.Value, len(insts))
					tensortest.WithAVX2(asm, func() {
						for i, inst := range insts {
							if err := inst.Run(ctx); err != nil {
								t.Fatalf("%s %s mode %d: %v", c.Name, cell, mode, err)
							}
							outs[i] = append([]tensor.Value(nil), cellVals(t, inst)...)
						}
					})
					base := outs[0]
					for i, k := range ks {
						scale := tensor.Value(math.Ldexp(1, k))
						label := fmt.Sprintf("%s 2^%d %s mode %d asm %v", c.Name, k, cell, mode, asm)
						if len(outs[i+1]) != len(base) {
							t.Fatalf("%s: %d output values, %d unscaled", label, len(outs[i+1]), len(base))
						}
						for at, b := range base {
							if b != 0 && math.Abs(float64(b)) < 0x1p-100 {
								t.Fatalf("%s: output element %d = %v is too small to scale exactly", label, at, b)
							}
							if want, got := b*scale, outs[i+1][at]; math.Float32bits(got) != math.Float32bits(want) {
								t.Fatalf("%s: output element %d scaled is %v (%08x), want %v (%08x)", label, at,
									got, math.Float32bits(got), want, math.Float32bits(want))
							}
						}
					}
				}
			}
		}
	}
}

// TestTtvCellsUnionOfDisjointFibers splits a tensor, per product mode,
// into two whose fibers are disjoint (by the parity of the fiber's other
// coordinates) and checks that every Ttv cell's output of the whole is,
// fiber by fiber, bit for bit the output of the part that holds the
// fiber, with the Go loop and with the assembly body. F-COO is the one
// cell held out: its segmented reduction cuts the non-zeros into
// segments of a fixed length from the tensor's first non-zero and adds a
// fiber's per-segment partial sums, so how it associates a fiber's sum
// depends on the non-zeros in front of the fiber, by design.
func TestTtvCellsUnionOfDisjointFibers(t *testing.T) {
	for _, c := range metamorphicTensors(t) {
		x := c.X
		for mode := 0; mode < x.Order(); mode++ {
			parts := [2]*tensor.COO{tensor.NewCOO(x.Dims, 0), tensor.NewCOO(x.Dims, 0)}
			idx := make([]tensor.Index, x.Order())
			for m := 0; m < x.NNZ(); m++ {
				v := x.Entry(m, idx)
				var sum tensor.Index
				for _, n := range tensor.OtherModes(x.Order(), mode) {
					sum += idx[n]
				}
				parts[sum&1].Append(idx, v)
			}
			for _, asm := range tensortest.BodySides() {
				tensortest.WithAVX2(asm, func() {
					for _, cell := range kernelCells(roofline.Ttv) {
						if cell.Format == roofline.FCOO {
							continue
						}
						label := fmt.Sprintf("%s %s mode %d asm %v", c.Name, cell, mode, asm)
						whole := ttvCellOutput(t, cell, x, mode)
						n := 0
						for _, part := range parts {
							for at, want := range ttvCellOutput(t, cell, part, mode) {
								n++
								got, ok := whole[at]
								if !ok {
									t.Fatalf("%s: the whole has no fiber %s", label, at)
								}
								if math.Float32bits(got) != math.Float32bits(want) {
									t.Fatalf("%s: fiber %s is %v (%08x) in the whole, %v (%08x) in its part", label, at,
										got, math.Float32bits(got), want, math.Float32bits(want))
								}
							}
						}
						if n != len(whole) {
							t.Fatalf("%s: the parts hold %d fibers, the whole %d", label, n, len(whole))
						}
					}
				})
			}
		}
	}
}

// TestDistTtvMatchesExecuteSeq runs dist's Ttv at 1, 2 and 3 ranks and
// checks its output against the COO plan's ExecuteSeq, index for index
// and bit for bit, with the Go loop and with the assembly body: each
// rank reduces a range of whole fibers (TtvPlan.ExecuteFibers), so the
// decomposition reassociates nothing.
func TestDistTtvMatchesExecuteSeq(t *testing.T) {
	ctx := context.Background()
	for _, c := range metamorphicTensors(t) {
		x := c.X
		for mode := 0; mode < x.Order(); mode++ {
			v := ModeVector(x.Dims, mode)
			p, err := core.PrepareTtv(x, mode)
			if err != nil {
				t.Fatal(err)
			}
			for _, asm := range tensortest.BodySides() {
				tensortest.WithAVX2(asm, func() {
					want, err := p.ExecuteSeq(v)
					if err != nil {
						t.Fatal(err)
					}
					for ranks := 1; ranks <= 3; ranks++ {
						e, err := dist.NewEngine(x, dist.Options{Ranks: ranks})
						if err != nil {
							t.Fatal(err)
						}
						got, err := e.Ttv(ctx, mode, v)
						if err != nil {
							t.Fatal(err)
						}
						sameFibers(t, fmt.Sprintf("%s mode %d ranks %d asm %v", c.Name, mode, ranks, asm),
							got.Out.Inds, want.Inds, got.Out.Vals, want.Vals)
					}
				})
			}
		}
	}
}
