package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/gpusim"
	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// The COO and HiCOO plans of Ttv and Ttm run one value computation
// (fiber.go) behind different preprocessing, so their outputs must agree
// bit for bit — per output coordinate, under every execution path that
// reduces a fiber in storage order. These tests pin that sharing and the
// per-call cost of the delegation.

// maxDenseOperand bounds the product-mode size a corpus case may have:
// the dense vector/matrix operand of the 2^32-range modes cannot be
// allocated.
const maxDenseOperand = 1 << 22

// fiberRows flattens an output with one r-row per fiber into
// coordinate → value bits, failing on a repeated coordinate.
func fiberRows(t *testing.T, label string, inds [][]tensor.Index, vals []tensor.Value, r int) map[string][]uint32 {
	t.Helper()
	rows := make(map[string][]uint32, len(vals)/r)
	idx := make([]tensor.Index, len(inds))
	for f := 0; f*r < len(vals); f++ {
		for n := range inds {
			idx[n] = inds[n][f]
		}
		key := coordKey(idx)
		if _, dup := rows[key]; dup {
			t.Fatalf("%s: output coordinate %s appears twice", label, key)
		}
		bits := make([]uint32, r)
		for c := range bits {
			bits[c] = math.Float32bits(vals[f*r+c])
		}
		rows[key] = bits
	}
	return rows
}

func sameRows(t *testing.T, label string, got, want map[string][]uint32) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d output fibers, want %d", label, len(got), len(want))
	}
	for key, w := range want {
		g, ok := got[key]
		if !ok {
			t.Fatalf("%s: missing output coordinate %s", label, key)
		}
		for c := range w {
			if g[c] != w[c] {
				t.Fatalf("%s: at %s column %d got bits %08x (%v), want %08x (%v)", label, key, c,
					g[c], math.Float32frombits(g[c]), w[c], math.Float32frombits(w[c]))
			}
		}
	}
}

// oneThread lists the execution options that reduce every fiber in
// storage order: each forced strategy on a single worker.
func oneThread() []parallel.Options {
	var opts []parallel.Options
	for _, st := range []parallel.Strategy{parallel.Owner, parallel.Atomic, parallel.Privatized} {
		opts = append(opts, parallel.Options{Threads: 1, Strategy: st})
	}
	return opts
}

func TestFiberKernelsBitIdenticalAcrossFormats(t *testing.T) {
	const r = 3
	devs := []*gpusim.Device{gpusim.NewDevice("gpu0", 4), gpusim.NewDevice("gpu1", 4), gpusim.NewDevice("gpu2", 4)}
	for _, c := range tensortest.Corpus(t) {
		x := c.X
		if x.Order() < 2 {
			continue
		}
		for mode := 0; mode < x.Order(); mode++ {
			if x.Dims[mode] > maxDenseOperand {
				continue
			}
			name := fmt.Sprintf("%s/m%d", c.Name, mode)
			rng := rand.New(rand.NewSource(int64(31 + mode)))
			v := tensor.RandomVector(int(x.Dims[mode]), rng)
			u := tensor.NewMatrix(int(x.Dims[mode]), r)
			u.Randomize(rng)

			// Ttv: COO vs HiCOO, every path against the COO sequential one.
			cp, err := PrepareTtv(x, mode)
			if err != nil {
				t.Fatal(err)
			}
			hp, err := PrepareTtvHiCOO(x, mode, hicoo.DefaultBlockBits)
			if err != nil {
				t.Fatal(err)
			}
			cooRows := func() map[string][]uint32 { return fiberRows(t, name, cp.Out.Inds, cp.Out.Vals, 1) }
			hicooRows := func() map[string][]uint32 {
				o := hp.Out.ToCOO()
				return fiberRows(t, name, o.Inds, o.Vals, 1)
			}
			if _, err := cp.ExecuteSeq(v); err != nil {
				t.Fatal(err)
			}
			want := cooRows()
			if _, err := hp.ExecuteSeq(v); err != nil {
				t.Fatal(err)
			}
			sameRows(t, name+" Ttv HiCOO seq", hicooRows(), want)
			for _, opt := range oneThread() {
				if _, err := cp.ExecuteOMP(v, opt); err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s Ttv COO %v", name, opt.Strategy), cooRows(), want)
				if _, err := hp.ExecuteOMP(v, opt); err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s Ttv HiCOO %v", name, opt.Strategy), hicooRows(), want)
			}
			if _, err := cp.ExecuteGPU(devs[0], v); err != nil {
				t.Fatal(err)
			}
			sameRows(t, name+" Ttv GPU", cooRows(), want)
			if _, err := cp.ExecuteMultiGPU(devs, v); err != nil {
				t.Fatal(err)
			}
			sameRows(t, name+" Ttv MultiGPU", cooRows(), want)

			// Ttm: the same, on R-wide fiber rows.
			cm, err := PrepareTtm(x, mode, r)
			if err != nil {
				t.Fatal(err)
			}
			hm, err := PrepareTtmHiCOO(x, mode, r, hicoo.DefaultBlockBits)
			if err != nil {
				t.Fatal(err)
			}
			cooRows = func() map[string][]uint32 { return fiberRows(t, name, cm.Out.Inds, cm.Out.Vals, r) }
			hicooRows = func() map[string][]uint32 {
				o := hm.Out.ToSemiCOO()
				return fiberRows(t, name, o.Inds, o.Vals, r)
			}
			if _, err := cm.ExecuteSeq(u); err != nil {
				t.Fatal(err)
			}
			want = cooRows()
			if _, err := hm.ExecuteSeq(u); err != nil {
				t.Fatal(err)
			}
			sameRows(t, name+" Ttm HiCOO seq", hicooRows(), want)
			for _, opt := range oneThread() {
				if _, err := cm.ExecuteOMP(u, opt); err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s Ttm COO %v", name, opt.Strategy), cooRows(), want)
				if _, err := hm.ExecuteOMP(u, opt); err != nil {
					t.Fatal(err)
				}
				sameRows(t, fmt.Sprintf("%s Ttm HiCOO %v", name, opt.Strategy), hicooRows(), want)
			}
		}
	}
}

// TestFiberKernelSteadyStateAllocations pins the per-call cost of the
// delegation: a steady-state ExecuteOMP allocates no more than the
// un-shared copies did. The bounds are the parent commit's measured
// counts (8cd088b, go1.24, this test run against its plans); the kernel
// view lives in the plan precisely so they do not grow — building it per
// call makes it escape through the parallel.For closure.
func TestFiberKernelSteadyStateAllocations(t *testing.T) {
	if tensortest.Race {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	x := randTensor(77, []tensor.Index{200, 150, 100}, 20000)
	const mode, r = 1, 16
	rng := rand.New(rand.NewSource(78))
	v := tensor.RandomVector(int(x.Dims[mode]), rng)
	u := tensor.NewMatrix(int(x.Dims[mode]), r)
	u.Randomize(rng)

	tv, err := PrepareTtv(x, mode)
	if err != nil {
		t.Fatal(err)
	}
	tvh, err := PrepareTtvHiCOO(x, mode, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	tm, err := PrepareTtm(x, mode, r)
	if err != nil {
		t.Fatal(err)
	}
	tmh, err := PrepareTtmHiCOO(x, mode, r, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	kernels := []struct {
		name string
		run  func(parallel.Options) error
	}{
		{"Ttv/COO", func(o parallel.Options) error { _, err := tv.ExecuteOMP(v, o); return err }},
		{"Ttv/HiCOO", func(o parallel.Options) error { _, err := tvh.ExecuteOMP(v, o); return err }},
		{"Ttm/COO", func(o parallel.Options) error { _, err := tm.ExecuteOMP(u, o); return err }},
		{"Ttm/HiCOO", func(o parallel.Options) error { _, err := tmh.ExecuteOMP(u, o); return err }},
	}
	// Parent-commit allocations per call — the same for Ttv and Ttm, COO
	// and HiCOO.
	parent := []struct {
		opt    parallel.Options
		allocs float64
	}{
		{parallel.Options{Threads: 1, Strategy: parallel.Owner}, 2},
		{parallel.Options{Threads: 1, Strategy: parallel.Atomic}, 4},
		{parallel.Options{Threads: 1, Strategy: parallel.Privatized}, 5},
		{parallel.Options{Threads: 4, Schedule: parallel.Static, Strategy: parallel.Owner}, 12},
	}
	for _, k := range kernels {
		for _, p := range parent {
			for i := 0; i < 3; i++ { // warm the workspace pool
				if err := k.run(p.opt); err != nil {
					t.Fatal(err)
				}
			}
			got := testing.AllocsPerRun(50, func() {
				if err := k.run(p.opt); err != nil {
					t.Fatal(err)
				}
			})
			if got > p.allocs {
				t.Errorf("%s T=%d %v: %v allocs/call, parent commit had %v", k.name, p.opt.Threads, p.opt.Strategy, got, p.allocs)
			}
		}
	}
}
