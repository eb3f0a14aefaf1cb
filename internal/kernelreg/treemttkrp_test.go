package kernelreg

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roofline"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// BenchmarkTreeMttkrp times the sequential rung of the Mttkrp cells on
// CSF and bCSF (csf's tree plan, DESIGN.md §23) beside the COO row body
// on the three benchmark recipes at the benchmark's sizes: one iteration
// is one Mttkrp per mode, reported per non-zero per mode, on the Go loops
// (/go) and on the AVX2 bodies (/avx2). Run it with -cpu 1; every row
// must read 0 B/op. long4d is the guard no benchmark workload provides:
// an order-4 tree with ≈ 9 non-zeros per fiber, where a shape that helps
// regular4d's chains of one-leaf fibers can cost.
func BenchmarkTreeMttkrp(b *testing.B) {
	ctx := context.Background()
	recipe := func(name string, nnz int) *tensor.COO {
		e, err := dataset.ByID(name)
		if err != nil {
			b.Fatal(err)
		}
		x, err := dataset.Materialize(e, nnz, 1)
		if err != nil {
			b.Fatal(err)
		}
		return x
	}
	tree := []roofline.Format{roofline.COO, roofline.CSF, roofline.BCSF}
	for _, w := range []struct {
		name    string
		x       *tensor.COO
		formats []roofline.Format
	}{
		{"irrS", recipe("irrS", 300000), tree},
		{"regS4d", recipe("regS4d", 100000), tree},
		{"nell2", recipe("nell2", 40000), tree},
		{"long4d", tensor.RandomCOO([]tensor.Index{32, 32, 32, 32}, 300000, rand.New(rand.NewSource(5))), tree[:2]},
	} {
		x := w.x
		wb := NewWorkbench(x, DefaultConfig())
		for _, f := range w.formats {
			v, err := Lookup(roofline.Mttkrp, f, OMP)
			if err != nil {
				b.Fatal(err)
			}
			insts := make([]*Instance, x.Order())
			for mode := range insts {
				if insts[mode], err = v.Prepare(wb, mode); err != nil {
					b.Fatal(err)
				}
			}
			tensortest.BenchSides(b, w.name+"/"+f.String(), len(insts)*x.NNZ(), "nnz", func() error {
				for _, inst := range insts {
					if err := inst.Serial(ctx); err != nil {
						return err
					}
				}
				return nil
			})
		}
	}
}

// TestTreeMttkrpAllocatesNothingPerCall: the tree plan owns its output
// and draws pooled level scratch, so a steady-state sequential rung
// allocates nothing and a one-thread Run only what parallel.For's own
// bookkeeping costs every kernel that runs it there (the Ttm COO cell's
// count; COO Mttkrp on one worker is its serial body and allocates
// nothing), on the Go loops and on the AVX2 bodies.
func TestTreeMttkrpAllocatesNothingPerCall(t *testing.T) {
	if tensortest.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	x := tensor.RandomCOO([]tensor.Index{200, 150, 100, 30}, 20000, rand.New(rand.NewSource(78)))
	cfg := DefaultConfig()
	cfg.Sched.Threads = 1
	wb := NewWorkbench(x, cfg)
	ctx := context.Background()
	const mode = 1
	allocs := func(k roofline.Kernel, f roofline.Format) (serial, run float64) {
		v, err := Lookup(k, f, OMP)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := v.Prepare(wb, mode)
		if err != nil {
			t.Fatal(err)
		}
		rung := func(run func(context.Context) error) float64 {
			return testing.AllocsPerRun(10, func() {
				if err := run(ctx); err != nil {
					t.Fatal(err)
				}
			})
		}
		return rung(inst.Serial), rung(inst.Run)
	}
	for _, asm := range tensortest.BodySides() {
		tensortest.WithAVX2(asm, func() {
			_, loop := allocs(roofline.Ttm, roofline.COO)
			for _, f := range []roofline.Format{roofline.CSF, roofline.BCSF} {
				if serial, run := allocs(roofline.Mttkrp, f); serial != 0 || run > loop {
					t.Errorf("Mttkrp/%s asm %v allocates %v times per Serial and %v per one-thread Run, want 0 and at most the Ttm COO cell's %v", f, asm, serial, run, loop)
				}
			}
		})
	}
}
