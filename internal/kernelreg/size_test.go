package kernelreg

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/roofline"
	"repro/internal/tensor"
)

// Total is the full admission charge for a cold request.
func (f Footprint) Total() int64 { return f.Workbench + f.Instance + f.Run }

func TestMemBytesGrowsWithOperands(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{40, 40, 40}, 2000, rand.New(rand.NewSource(7)))
	wb := NewWorkbench(x, Config{})
	base := wb.MemBytes()
	if base < x.StorageBytes() {
		t.Fatalf("MemBytes() = %d, below the input tensor's %d", base, x.StorageBytes())
	}
	wb.Mats() // force the factor matrices
	withMats := wb.MemBytes()
	if withMats <= base {
		t.Fatalf("MemBytes() after Mats() = %d, want > %d", withMats, base)
	}
	wb.HX() // force the HiCOO conversion
	withHX := wb.MemBytes()
	if withHX <= withMats {
		t.Fatalf("MemBytes() after HX() = %d, want > %d", withHX, withMats)
	}
	wantDelta := wb.HX().StorageBytes()
	if got := withHX - withMats; got != wantDelta {
		t.Fatalf("HX delta = %d, want the conversion's StorageBytes %d", got, wantDelta)
	}
}

func TestEstimateFootprintShape(t *testing.T) {
	dims := []int64{100, 200, 300}
	for _, k := range roofline.Kernels {
		for _, f := range roofline.Formats {
			small := EstimateFootprint(k, f, dims, 10_000, Config{})
			big := EstimateFootprint(k, f, dims, 1_000_000, Config{})
			if small.Workbench <= 0 || small.Instance <= 0 || small.Run <= 0 {
				t.Fatalf("%s/%s: non-positive component in %+v", k, f, small)
			}
			if big.Total() <= small.Total() {
				t.Fatalf("%s/%s: footprint not monotone in nnz (%d vs %d)",
					k, f, big.Total(), small.Total())
			}
			// The Run component is a working-set estimate, not raw
			// traffic: it must stay within the resident set plus scratch.
			if small.Run > small.Workbench+small.Instance+1<<20 {
				t.Fatalf("%s/%s: Run %d exceeds resident set %d",
					k, f, small.Run, small.Workbench+small.Instance)
			}
		}
	}
}

// The estimate must land within an order of magnitude of the measured
// workbench for the operands it models — close enough to admit by.
func TestEstimateTracksMeasuredWorkbench(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{50, 60, 70}, 5000, rand.New(rand.NewSource(3)))
	wb := NewWorkbench(x, Config{})
	wb.Mats()
	measured := wb.MemBytes()
	dims := []int64{50, 60, 70}
	est := EstimateFootprint(roofline.Mttkrp, roofline.COO, dims, int64(x.NNZ()), Config{})
	if est.Workbench < measured/10 || est.Workbench > measured*10 {
		t.Fatalf("estimated workbench %d vs measured %d: off by more than 10x",
			est.Workbench, measured)
	}
}

// TestWorkbenchSortedViews pins the sorted-view cache: one view per mode
// order however many variants ask, X itself (or a view of its arrays,
// costing nothing) when the data already is in that order, and a sorted
// copy — charged once by MemBytes — when it is not.
func TestWorkbenchSortedViews(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{40, 40, 40}, 2000, rand.New(rand.NewSource(9)))
	x.SortNatural()
	wb := NewWorkbench(x, Config{})
	base := wb.MemBytes()
	if wb.Sorted([]int{0, 1, 2}) != x {
		t.Fatal("a tensor known to be in natural order must be its own natural view")
	}
	if wb.MemBytes() != base {
		t.Fatal("a view of X's own arrays must not be charged")
	}
	s := wb.FiberSorted(0)
	if s == x || !s.IsSortedBy([]int{1, 2, 0}) {
		t.Fatal("FiberSorted(0) must be a copy ordered with mode 0 innermost")
	}
	if wb.Sorted([]int{1, 2, 0}) != s || wb.FiberSorted(0) != s {
		t.Fatal("the same mode order must return the cached view")
	}
	if got := wb.MemBytes() - base; got != s.StorageBytes() {
		t.Fatalf("sorted copy charged %d bytes, want its StorageBytes %d", got, s.StorageBytes())
	}
	// Preparing the variants that need this order must not sort again:
	// the cache still holds exactly the two views.
	for _, kf := range []struct {
		k roofline.Kernel
		f roofline.Format
	}{{roofline.Ttv, roofline.COO}, {roofline.Ttm, roofline.COO}, {roofline.Ttv, roofline.CSF}, {roofline.Ttm, roofline.BCSF}} {
		v, err := HostVariant(kf.k, kf.f)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := v.Prepare(wb, 0); err != nil {
			t.Fatal(err)
		}
	}
	if len(wb.views) != 2 {
		t.Fatalf("%d sorted views after preparing four mode-0 variants, want 2", len(wb.views))
	}
}

// TestMemBytesChargesSharedTreeOnce pins the accounting of hierarchies
// over a cached CSF tree: a CSF wrap shares every array of the tree and
// adds nothing, and a bCSF root split adds only its split root arrays.
// Ttv/CSF, Ttm/CSF and Ttm/bCSF of one mode all order that mode at the
// leaves, so they stand on one tree.
func TestMemBytesChargesSharedTreeOnce(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{50, 60, 70}, 5000, rand.New(rand.NewSource(3)))
	for mode := 0; mode < x.Order(); mode++ {
		wb := NewWorkbench(x, DefaultConfig())
		prep := func(k roofline.Kernel, f roofline.Format) int64 {
			t.Helper()
			v, err := Lookup(k, f, OMP)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := v.Prepare(wb, mode); err != nil {
				t.Fatalf("%s mode %d: %v", v, mode, err)
			}
			return wb.MemBytes()
		}
		afterTtv := prep(roofline.Ttv, roofline.CSF)
		afterWrap := prep(roofline.Ttm, roofline.CSF)
		if got, want := afterWrap-afterTtv, tensor.ValueBytes*int64(len(wb.TtmMat(mode).Data)); got != want {
			t.Errorf("mode %d: Ttm/CSF after Ttv/CSF added %d bytes, want only the Ttm matrix's %d", mode, got, want)
		}
		afterSplit := prep(roofline.Ttm, roofline.BCSF)
		h := wb.hiers[roofline.BCSF.String()+moKey(tensor.ModeOrder(x.Order(), mode))]
		if h == nil {
			t.Fatalf("mode %d: no cached bCSF hierarchy", mode)
		}
		split := tensor.IndexBytes*int64(len(h.Crd[0])+len(h.Crd[1])) + 8*int64(len(h.Ptr[0]))
		if got := afterSplit - afterWrap; got != split {
			t.Errorf("mode %d: Ttm/bCSF added %d bytes, want only its split root's %d", mode, got, split)
		}
	}
}

// MemBytes reports the workbench's measured resident footprint: the
// input tensor plus every lazily built operand and format conversion.
// It walks only what has actually been materialized, so the number
// grows as variants touch the workbench — the measured complement to
// EstimateFootprint's pre-admission prediction.
func (wb *Workbench) MemBytes() int64 {
	wb.mu.Lock()
	defer wb.mu.Unlock()
	b := wb.X.StorageBytes()
	if wb.y != nil {
		b += wb.y.StorageBytes()
	}
	for _, s := range wb.views {
		// A view of already-ordered data shares X's arrays.
		if s.NNZ() > 0 && &s.Vals[0] != &wb.X.Vals[0] {
			b += s.StorageBytes()
		}
	}
	if wb.hx != nil {
		b += wb.hx.StorageBytes()
	}
	if wb.hy != nil {
		b += wb.hy.StorageBytes()
	}
	for _, v := range wb.vecs {
		b += tensor.ValueBytes * int64(len(v))
	}
	for _, m := range wb.ttm {
		b += tensor.ValueBytes * int64(len(m.Data))
	}
	for _, m := range wb.mats {
		b += tensor.ValueBytes * int64(len(m.Data))
	}
	for _, c := range wb.csfs {
		b += c.StorageBytes()
	}
	for _, h := range wb.hiers {
		// A hierarchy over a cached CSF tree shares the tree's arrays (a
		// wrap all of them, a root split all below the root); only the
		// arrays it does not share are charged.
		for _, p := range h.Ptr {
			b += 8 * int64(len(p))
		}
		for _, c := range h.Crd {
			b += tensor.IndexBytes * int64(len(c))
		}
		b += tensor.ValueBytes * int64(len(h.Vals))
		if c := wb.csfs[moKey(h.ModeOrder)]; c != nil {
			b -= shared(h.Ptr, c.FPtr, 8) + shared(h.Crd, c.FIds, tensor.IndexBytes) +
				shared([][]tensor.Value{h.Vals}, [][]tensor.Value{c.Vals}, tensor.ValueBytes)
		}
	}
	return b
}

// shared sums size bytes per element over the arrays of hs that are
// also arrays of cs. The same first element is the same array: the rule
// the views above apply to X's arrays.
func shared[E any](hs, cs [][]E, size int64) int64 {
	var b int64
	for _, h := range hs {
		for _, c := range cs {
			if len(h) > 0 && len(c) > 0 && &h[0] == &c[0] {
				b += size * int64(len(h))
				break
			}
		}
	}
	return b
}

// TestEstimateChargesTtvLayout prepares each Ttv and Ttm fiber-plan cell
// and checks that the bytes Prepare leaves live (the sorted view, the
// conversion, the plan with its fiber pointers, its output and, for Ttv,
// the length-grouped layout) stay within the estimate's Instance
// component, on two tensors: many one-non-zero fibers and a few long
// ones, where Ttv's Prepare builds the layout, and one fiber per
// non-zero, where the fiber pointers are as many as the non-zeros.
func TestEstimateChargesTtvLayout(t *testing.T) {
	dims := []tensor.Index{1024, 64, 512}
	fewLong := tensor.NewCOO(dims, 0)
	perNonZero := tensor.NewCOO(dims, 0)
	for i := 0; i < 1024; i++ {
		for j := 0; j < 64; j++ {
			n := 1
			if j == 0 && i%4 == 0 {
				n = 200
			}
			for k := 0; k < n; k++ {
				fewLong.Append([]tensor.Index{tensor.Index(i), tensor.Index(j), tensor.Index((7*k + j) % 512)}, 1)
			}
		}
	}
	for _, ij := range rand.New(rand.NewSource(3)).Perm(1024 * 64) { // out of order: the sorted view is a copy
		i, j := ij/64, ij%64
		perNonZero.Append([]tensor.Index{tensor.Index(i), tensor.Index(j), tensor.Index((7*i + j) % 512)}, 1)
	}
	const mode = 2
	requireGroupedTtvMode(t, "few-long-fibers", fewLong, mode)
	for name, x := range map[string]*tensor.COO{"few-long-fibers": fewLong, "fiber-per-non-zero": perNonZero} {
		for _, k := range []roofline.Kernel{roofline.Ttv, roofline.Ttm} {
			for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO, roofline.CSF, roofline.BCSF} {
				v, err := Lookup(k, f, OMP)
				if err != nil {
					t.Fatal(err)
				}
				least, most := leastLive(t, v, x, mode, DefaultConfig(), func(wb *Workbench) {
					if k == roofline.Ttv {
						wb.Vec(mode)
					} else {
						wb.TtmMat(mode)
					}
				}, nil)
				charged := EstimateFootprint(k, f, []int64{1024, 64, 512}, int64(x.NNZ()), Config{}).Instance
				perNZ := func(b int64) float64 { return float64(b) / float64(x.NNZ()) }
				t.Logf("%s %s: %.1f B per non-zero live (%.1f–%.1f over %d prepares), %.1f charged",
					name, v, perNZ(least), perNZ(least), perNZ(most), liveSamples, perNZ(charged))
				if least > charged {
					t.Errorf("%s %s: Prepare left %d bytes live, the estimate charges the instance %d", name, v, least, charged)
				}
			}
		}
	}
}

// liveSamples is how many prepares leastLive reads. One HeapAlloc
// difference moved by several bytes per non-zero from run to run (pooled
// sort scratch counted or not), so a cell's live bytes are the least of
// liveSamples prepares, each on a fresh workbench after a collection
// with the pools refilled, and the tests log their spread.
const liveSamples = 5

// leastLive prepares variant v of x in mode liveSamples times and
// returns the least and most bytes each left live: after operands has
// built the workbench operands the cell reads (which the estimate
// charges to the workbench) and, when after is not nil, after it ran on
// the instance.
func leastLive(t *testing.T, v *Variant, x *tensor.COO, mode int, cfg Config, operands func(*Workbench), after func(*Instance)) (least, most int64) {
	t.Helper()
	least, most = math.MaxInt64, math.MinInt64
	for range liveSamples {
		// A throwaway Prepare first refills the pooled scratch (sort
		// buffers) that the collections since the last sample dropped,
		// so that both readings hold it and it is not counted as the
		// instance's.
		if _, err := v.Prepare(NewWorkbench(x, cfg), mode); err != nil {
			t.Fatal(err)
		}
		wb := NewWorkbench(x, cfg)
		operands(wb)
		var before, after2 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		inst, err := v.Prepare(wb, mode)
		if err != nil {
			t.Fatal(err)
		}
		if after != nil {
			after(inst)
		}
		runtime.GC()
		runtime.ReadMemStats(&after2)
		runtime.KeepAlive(inst)
		live := int64(after2.HeapAlloc) - int64(before.HeapAlloc)
		least, most = min(least, live), max(most, live)
	}
	return least, most
}

// TestEstimateChargesMttkrp holds the COO and HiCOO Mttkrp cells to the
// rule TestEstimateChargesTtvLayout holds the fiber plans to: the bytes
// Prepare and a first run on two workers leave live (the conversion,
// the output and the mode-sorted copy the parallel path builds) stay
// within the estimate's Instance component. The tensors are regular4d's
// main tensor (regS4d, 100 000 non-zeros, about 1.6 per HiCOO block) and
// small3d's (nell2, 40 000 non-zeros, tens per block).
func TestEstimateChargesMttkrp(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Sched.Threads = 2
	for _, w := range []struct {
		id  string
		nnz int
	}{{"regS4d", 100_000}, {"nell2", 40_000}} {
		e, err := dataset.ByID(w.id)
		if err != nil {
			t.Fatal(err)
		}
		x, err := dataset.Materialize(e, w.nnz, 1)
		if err != nil {
			t.Fatal(err)
		}
		dims := make([]int64, len(x.Dims))
		for n, d := range x.Dims {
			dims[n] = int64(d)
		}
		for _, f := range []roofline.Format{roofline.COO, roofline.HiCOO} {
			v, err := Lookup(roofline.Mttkrp, f, OMP)
			if err != nil {
				t.Fatal(err)
			}
			least, most := leastLive(t, v, x, 0, cfg, func(wb *Workbench) { wb.Mats() }, func(inst *Instance) {
				if err := inst.Run(context.Background()); err != nil {
					t.Fatal(err)
				}
			})
			charged := EstimateFootprint(roofline.Mttkrp, f, dims, int64(x.NNZ()), cfg).Instance
			perNZ := func(b int64) float64 { return float64(b) / float64(x.NNZ()) }
			t.Logf("%s %s: %.1f B per non-zero live (%.1f–%.1f over %d prepares), %.1f charged",
				w.id, v, perNZ(least), perNZ(least), perNZ(most), liveSamples, perNZ(charged))
			if least > charged {
				t.Errorf("%s %s: Prepare and a run left %d bytes live, the estimate charges the instance %d", w.id, v, least, charged)
			}
		}
	}
}
