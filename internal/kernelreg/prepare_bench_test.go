package kernelreg

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/roofline"
)

// prepareSteps are the three variants the benchmark's kernelreg.prepare
// cell prepares on a fresh workbench, in its order, each at mode 0.
var prepareSteps = []struct {
	name string
	k    roofline.Kernel
	f    roofline.Format
}{
	{"hicoo-ttv", roofline.Ttv, roofline.HiCOO},
	{"csf-mttkrp", roofline.Mttkrp, roofline.CSF},
	{"bcsf-ttm", roofline.Ttm, roofline.BCSF},
}

// BenchmarkPrepare times the kernelreg.prepare cell outside the round:
// the three prepares on a fresh workbench over the benchmark's service
// tensors (irrS, regS4d and nell2 at a workload's main size over eight,
// seed 2), as one call (/cell) and step by step. A step's sub-benchmark
// times only that step; the steps before it run untimed on the same
// workbench, so it reads the caches they leave, as in the cell. Run it
// with -cpu 1 and -benchmem.
func BenchmarkPrepare(b *testing.B) {
	for _, r := range []struct {
		id  string
		nnz int
	}{{"irrS", 37_500}, {"regS4d", 12_500}, {"nell2", 5_000}} {
		e, err := dataset.ByID(r.id)
		if err != nil {
			b.Fatal(err)
		}
		x, err := dataset.Materialize(e, r.nnz, 2)
		if err != nil {
			b.Fatal(err)
		}
		variants := make([]*Variant, len(prepareSteps))
		for i, s := range prepareSteps {
			if variants[i], err = Lookup(s.k, s.f, OMP); err != nil {
				b.Fatal(err)
			}
		}
		// prepare runs steps [0, stop) on a fresh workbench and times
		// steps [from, stop).
		prepare := func(b *testing.B, from, stop int) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				wb := NewWorkbench(x, DefaultConfig())
				for _, v := range variants[:from] {
					if _, err := v.Prepare(wb, 0); err != nil {
						b.Fatal(err)
					}
				}
				b.StartTimer()
				for _, v := range variants[from:stop] {
					if _, err := v.Prepare(wb, 0); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/op")
		}
		b.Run(r.id+"/cell", func(b *testing.B) { prepare(b, 0, len(variants)) })
		for i, s := range prepareSteps {
			b.Run(r.id+"/"+s.name, func(b *testing.B) { prepare(b, i, i+1) })
		}
	}
}
