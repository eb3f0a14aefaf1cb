package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"time"

	"repro/bench/ref"
	"repro/internal/algo"
	"repro/internal/kernelreg"
	"repro/internal/parallel"
	"repro/internal/roofline"
	"repro/internal/serve"
	"repro/internal/tensor"
)

// tolerance is the relative deviation (absolute below magnitude 1) an
// output may show against the serial-COO reference: it covers float32
// reduction-order noise at these sizes, as in cmd/pastaverify.
const tolerance = 2e-3

// fitTolerance bounds how far the parallel CP-ALS fit may sit from the
// single-threaded fit of the same sweeps.
const fitTolerance = 1e-3

// canonLimit is the largest output, in values, the gate compares on the
// main tensor. kernelreg compares outputs as coordinate-keyed maps
// (about 0.75 us per value); a Ttm output has R values per fiber, which
// on a 300 k tensor is 20 s of comparing per run. A kernel whose outputs
// are larger than this is checked on the service tensor instead: the
// same variants and modes, prepared and run once, compared in full. Its
// timed instances on the main tensor are still scanned for non-finite
// values.
const canonLimit = 1 << 18

// onService reports whether kernel k's outputs are checked on the
// service tensor.
func (s *state) onService(k roofline.Kernel) bool {
	return k == roofline.Ttm && s.x.NNZ()*s.wb.R() > canonLimit
}

func within(what string, dev float64) error {
	if math.IsNaN(dev) || dev > tolerance {
		return fmt.Errorf("%s deviates by %.3g from the serial-COO reference (tolerance %g)", what, dev, tolerance)
	}
	return nil
}

// verify checks every frozen reference, run on `workers` goroutines,
// against the registry's own ground truth (Workbench.Reference) on the
// references' tensor, so each paired timing sits beside a correctness
// check. It runs after set-up, outside setup_s: it checks the benchmark,
// not the program. prefix names the checks ("ref", "ref.serial"); skip
// excludes kernels.
func (d *refData) verify(h *harness, prefix string, workers int, skip func(roofline.Kernel) bool) {
	x, r := d.src, d.r
	against := func(what string, k roofline.Kernel, mode int, out any) {
		if skip(k) {
			return
		}
		what = prefix + "." + what
		want, err := d.wb.Reference(ctx, k, mode)
		if err == nil {
			err = within(what, kernelreg.Compare(kernelreg.CanonOf(out), want))
		}
		h.check(what, err)
	}
	sameShape := func(vals []float32) *tensor.COO {
		return &tensor.COO{Dims: x.Dims, Inds: x.Inds, Vals: vals}
	}
	d.tew(workers)
	against("tew", roofline.Tew, 0, sameShape(d.ewOut))
	d.ts(workers)
	against("ts", roofline.Ts, 0, sameShape(d.ewOut))
	for n := 0; n < x.Order(); n++ {
		sorted, ptr := d.byMode[n], d.ptr[n]
		nf := len(ptr) - 1
		// The output coordinates of fiber f are the non-product
		// coordinates of its first non-zero.
		var others []int
		for m := 0; m < x.Order(); m++ {
			if m != n {
				others = append(others, m)
			}
		}
		ttv := &tensor.COO{Vals: d.ttvOut[n]}
		outDims := append([]tensor.Index(nil), x.Dims...)
		outDims[n] = tensor.Index(r)
		ttm := tensor.NewSemiCOO(outDims, []int{n}, nf)
		idx := make([]tensor.Index, len(others))
		for _, m := range others {
			ttv.Dims = append(ttv.Dims, x.Dims[m])
			ind := make([]tensor.Index, nf)
			for f := 0; f < nf; f++ {
				ind[f] = sorted.Inds[m][ptr[f]]
			}
			ttv.Inds = append(ttv.Inds, ind)
		}
		for f := 0; f < nf; f++ {
			for i := range others {
				idx[i] = ttv.Inds[i][f]
			}
			ttm.AppendFiber(idx)
		}
		d.ttv(n, workers)
		against(fmt.Sprintf("ttv.m%d", n), roofline.Ttv, n, ttv)
		d.ttm(n, workers)
		ttm.Vals = ttm.Vals[:len(d.ttmOut[n])]
		copy(ttm.Vals, d.ttmOut[n])
		against(fmt.Sprintf("ttm.m%d", n), roofline.Ttm, n, ttm)
		d.mttkrp(n, workers)
		against(fmt.Sprintf("mttkrp.m%d", n), roofline.Mttkrp, n,
			&tensor.Matrix{Rows: int(x.Dims[n]), Cols: r, Data: d.mttOut[n]})
	}
}

// verifyRun is the correctness gate after the timed rounds: every kernel
// cell's output against the serial-COO reference, the CP-ALS fit against
// the single-threaded fit, the streamed and distributed outputs against
// the in-core reference, both readers against the generated tensor, and
// one verify:true request per kind to the daemon. It returns the time
// spent and the worst kernel deviation seen.
func (s *state) verifyRun(h *harness) (seconds, maxDev float64) {
	start := time.Now()

	// Kernel cells. Canonicalising an output is the slow part, so the
	// outputs are compared from a few goroutines; results are booked in
	// cell order afterwards. Everything that touches a workbench comes
	// first, serially: the service-tensor twins, and the references
	// (Workbench.Reference caches per (kernel, mode); concurrent first
	// calls would compute it twice).
	var kcells []*cell
	var compared []*kernelCell // kcells[i]'s instance, or its service-tensor twin
	seen := map[*kernelreg.Instance]bool{}
	for _, c := range s.cells {
		if c.kern == nil || seen[c.kern.inst] {
			continue
		}
		seen[c.kern.inst] = true
		k := c.kern
		err := k.inst.Check()
		if err == nil && s.onService(k.v.Kernel) {
			k, err = s.serviceTwin(k)
		}
		if err == nil {
			_, err = k.wb.Reference(ctx, k.v.Kernel, k.mode)
		}
		if err != nil {
			h.check(c.name, err)
			continue
		}
		kcells, compared = append(kcells, c), append(compared, k)
	}
	devs := make([]float64, len(kcells))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < threads(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				k := compared[i]
				want, _ := k.wb.Reference(ctx, k.v.Kernel, k.mode) // cached above
				devs[i] = kernelreg.Compare(k.inst.Output(), want)
			}
		}()
	}
	for i := range kcells {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, c := range kcells {
		h.check(c.name, within(c.name, devs[i]))
		if devs[i] > maxDev {
			maxDev = devs[i]
		}
	}

	// CP-ALS: same sweeps on one thread.
	serial, err := algo.CPALS(s.svc, cpRank, cpSweeps, 0, s.seed, parallel.Options{Schedule: parallel.Static, Threads: 1})
	if err == nil && math.Abs(serial.Fit-s.cpFit) > fitTolerance {
		err = fmt.Errorf("CP-ALS fit %.6f, single-threaded fit %.6f (tolerance %g)", s.cpFit, serial.Fit, fitTolerance)
	}
	h.check("algo.cpals", err)

	// The traced run's streamed and distributed outputs against the
	// in-core reference.
	type output struct {
		name string
		k    roofline.Kernel
		mode int
		out  any
	}
	var outputs []output
	if s.layers {
		outputs = []output{
			{"ooc.mttkrp", roofline.Mttkrp, 0, s.oocMttkrpOut},
			{"ooc.ttv", roofline.Ttv, 1, s.oocTtvOut},
			{"dist.mttkrp", roofline.Mttkrp, 0, s.distMttkrpOut},
			{"dist.ttv", roofline.Ttv, 0, s.distTtvOut},
		}
	}
	for _, o := range outputs {
		want, err := s.wb.Reference(ctx, o.k, o.mode)
		if err == nil {
			// A cell that never produced an output leaves a typed nil
			// here, which canonicalises to nothing and fails the check.
			err = within(o.name, kernelreg.Compare(kernelreg.CanonOf(o.out), want))
		}
		h.check(o.name, err)
	}

	// Both readers must return the tensor that was written.
	h.check("tensor.load", s.verifyReaders())

	// One verified request per kind.
	for _, k := range s.kinds {
		req := k.req
		req.Verify = true
		body, err := json.Marshal(req)
		if err == nil {
			var rr *serve.RunResponse
			if _, rr, err = s.post(0, body); err == nil {
				if rr.Deviation == nil {
					err = fmt.Errorf("response carries no deviation")
				} else {
					err = within("daemon "+k.name, *rr.Deviation)
				}
			}
		}
		h.check("serve.verify "+k.name, err)
	}
	return time.Since(start).Seconds(), maxDev
}

// serviceTwin prepares k's variant and mode on the service tensor and
// runs it once.
func (s *state) serviceTwin(k *kernelCell) (*kernelCell, error) {
	inst, err := k.v.Prepare(s.svcWb, k.mode)
	if err != nil {
		return nil, err
	}
	if err := inst.Run(ctx); err != nil {
		return nil, err
	}
	return &kernelCell{v: k.v, inst: inst, wb: s.svcWb, mode: k.mode}, inst.Check()
}

// verifyRefs checks the frozen references, run on `workers` goroutines:
// every one on the service tensor, and on the main tensor all but the
// kernels whose outputs there are too large to compare.
func (s *state) verifyRefs(h *harness, prefix string, workers int) {
	s.refs.verify(h, prefix, workers, s.onService)
	s.svcRefs.verify(h, prefix+".service", workers, func(roofline.Kernel) bool { return false })
}

// verifyReaders loads the workload's input file with the program's
// reader and the frozen reader and compares both with the generated
// tensor, entry by entry (a .tns file does not record mode sizes, so
// only coordinates and values are compared).
func (s *state) verifyReaders() error {
	input := s.input
	got, err := tensor.ReadFile(input)
	if err != nil {
		return err
	}
	var frozen *ref.COO
	want := s.svc
	if s.w.Input == "tns" {
		frozen, err = ref.ReadTNS(input, threads())
	} else {
		frozen, err = ref.ReadBTEN(input)
	}
	if err != nil {
		return err
	}
	if s.w.Input == "tiled" {
		// The tiled writer stores the non-zeros in natural order.
		want = s.svc.Clone()
		want.SortNatural()
	}
	for name, t := range map[string]*ref.COO{"tensor.ReadFile": asRef(got), "frozen reader": frozen} {
		if t.NNZ() != want.NNZ() || t.Order() != want.Order() {
			return fmt.Errorf("%s returned order %d with %d non-zeros, want order %d with %d",
				name, t.Order(), t.NNZ(), want.Order(), want.NNZ())
		}
		for n := range want.Inds {
			for i, v := range want.Inds[n] {
				if t.Inds[n][i] != v {
					return fmt.Errorf("%s: non-zero %d mode %d is %d, want %d", name, i, n, t.Inds[n][i], v)
				}
			}
		}
		for i, v := range want.Vals {
			if t.Vals[i] != v {
				return fmt.Errorf("%s: value %d is %v, want %v", name, i, t.Vals[i], v)
			}
		}
	}
	return nil
}
