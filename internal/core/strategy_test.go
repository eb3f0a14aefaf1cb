package core

import (
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/hicoo"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// strategyKernel adapts one reduction kernel for the strategy matrix
// tests: runSeq computes the reference output, runOMP executes with the
// given options and reports the resolved strategy, out exposes the
// (shared) output buffer.
type strategyKernel struct {
	name   string
	runSeq func() error
	runOMP func(opt parallel.Options) (parallel.Strategy, error)
	out    func() []tensor.Value
	// hasOwner reports whether the kernel has an owner-computes
	// decomposition (all but Mttkrp do).
	hasOwner bool
}

// strategyKernels builds one plan per reduction kernel over shared random
// inputs sized so every strategy has real work (multiple fibers per
// output, collisions on the product mode).
func strategyKernels(t *testing.T) []strategyKernel {
	t.Helper()
	x := randTensor(900, []tensor.Index{40, 30, 25}, 4000)
	r := 8
	mats := randMats(901, x, r)
	rng := rand.New(rand.NewSource(902))
	v := tensor.RandomVector(40, rng)
	u := tensor.NewMatrix(40, r)
	u.Randomize(rng)
	h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)
	s := semiFromTtm(t, 903, []tensor.Index{40, 30, 25}, 4000, 2, 6)
	sv := tensor.RandomVector(40, rng)
	su := tensor.NewMatrix(40, 5)
	su.Randomize(rng)

	mp, err := PrepareMttkrp(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	mhp, err := PrepareMttkrpHiCOO(h, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	tvp, err := PrepareTtv(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	tvhp, err := PrepareTtvHiCOO(x, 0, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	tvsp, err := PrepareTtvSemi(s, 0)
	if err != nil {
		t.Fatal(err)
	}
	tmp, err := PrepareTtm(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	tmhp, err := PrepareTtmHiCOO(x, 0, r, hicoo.DefaultBlockBits)
	if err != nil {
		t.Fatal(err)
	}
	tmsp, err := PrepareTtmSemi(s, 0, 5)
	if err != nil {
		t.Fatal(err)
	}

	return []strategyKernel{
		{
			name:   "MttkrpCOO",
			runSeq: func() error { _, err := mp.ExecuteSeq(mats); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := mp.ExecuteOMP(mats, opt)
				return mp.LastStrategy, err
			},
			out: func() []tensor.Value { return mp.Out.Data },
		},
		{
			name:   "MttkrpHiCOO",
			runSeq: func() error { _, err := mhp.ExecuteSeq(mats); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := mhp.ExecuteOMP(mats, opt)
				return mhp.LastStrategy, err
			},
			out: func() []tensor.Value { return mhp.Out.Data },
		},
		{
			name:   "TtvCOO",
			runSeq: func() error { _, err := tvp.ExecuteSeq(v); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := tvp.ExecuteOMP(v, opt)
				return tvp.LastStrategy, err
			},
			out:      func() []tensor.Value { return tvp.Out.Vals },
			hasOwner: true,
		},
		{
			name:   "TtvHiCOO",
			runSeq: func() error { _, err := tvhp.ExecuteSeq(v); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := tvhp.ExecuteOMP(v, opt)
				return tvhp.LastStrategy, err
			},
			out:      func() []tensor.Value { return tvhp.Out.Vals },
			hasOwner: true,
		},
		{
			name:   "TtvSemi",
			runSeq: func() error { _, err := tvsp.ExecuteSeq(sv); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := tvsp.ExecuteOMP(sv, opt)
				return tvsp.LastStrategy, err
			},
			out:      func() []tensor.Value { return tvsp.Out.Vals },
			hasOwner: true,
		},
		{
			name:   "TtmCOO",
			runSeq: func() error { _, err := tmp.ExecuteSeq(u); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := tmp.ExecuteOMP(u, opt)
				return tmp.LastStrategy, err
			},
			out:      func() []tensor.Value { return tmp.Out.Vals },
			hasOwner: true,
		},
		{
			name:   "TtmHiCOO",
			runSeq: func() error { _, err := tmhp.ExecuteSeq(u); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := tmhp.ExecuteOMP(u, opt)
				return tmhp.LastStrategy, err
			},
			out:      func() []tensor.Value { return tmhp.Out.Vals },
			hasOwner: true,
		},
		{
			name:   "TtmSemi",
			runSeq: func() error { _, err := tmsp.ExecuteSeq(su); return err },
			runOMP: func(opt parallel.Options) (parallel.Strategy, error) {
				_, err := tmsp.ExecuteOMP(su, opt)
				return tmsp.LastStrategy, err
			},
			out:      func() []tensor.Value { return tmsp.Out.Vals },
			hasOwner: true,
		},
	}
}

// TestAllStrategiesMatchSeq is the property the selector rests on: every
// reduction kernel produces the same values (within float32 reassociation
// tolerance) under every strategy and several thread counts.
func TestAllStrategiesMatchSeq(t *testing.T) {
	for _, k := range strategyKernels(t) {
		if err := k.runSeq(); err != nil {
			t.Fatalf("%s: seq: %v", k.name, err)
		}
		want := make([]float64, len(k.out()))
		for i, x := range k.out() {
			want[i] = float64(x)
		}
		strategies := []parallel.Strategy{parallel.Auto, parallel.Atomic, parallel.Privatized}
		if k.hasOwner {
			strategies = append(strategies, parallel.Owner)
		}
		for _, st := range strategies {
			for _, threads := range []int{1, 3, 8} {
				opt := parallel.Options{Schedule: parallel.Dynamic, Threads: threads, Strategy: st}
				last, err := k.runOMP(opt)
				if err != nil {
					t.Fatalf("%s/%v/T=%d: %v", k.name, st, threads, err)
				}
				if last == parallel.Auto {
					t.Fatalf("%s/%v/T=%d: LastStrategy not resolved", k.name, st, threads)
				}
				if st != parallel.Auto && st != parallel.Owner && last != st {
					t.Fatalf("%s/T=%d: forced %v but ran %v", k.name, threads, st, last)
				}
				for i, x := range k.out() {
					if !closeEnough(float64(x), want[i]) {
						t.Fatalf("%s/%v/T=%d: out[%d] = %v, want %v", k.name, st, threads, i, x, want[i])
					}
				}
			}
		}
	}
}

// TestStrategiesUnderThreadChurn runs the racy strategies while another
// goroutine flips the global thread count — the failure mode the pinned
// ResolveThreads count guards against. Values are still checked each
// iteration; run under -race this also proves no data race on the
// runtime's own state.
func TestStrategiesUnderThreadChurn(t *testing.T) {
	orig := parallel.NumThreads()
	defer parallel.SetNumThreads(orig)

	x := randTensor(910, []tensor.Index{30, 20, 15}, 1500)
	r := 4
	mats := randMats(911, x, r)
	v := tensor.RandomVector(30, rand.New(rand.NewSource(912)))
	mp, err := PrepareMttkrp(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	tvp, err := PrepareTtv(x, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.ExecuteSeq(mats); err != nil {
		t.Fatal(err)
	}
	wantM := append([]tensor.Value(nil), mp.Out.Data...)
	if _, err := tvp.ExecuteSeq(v); err != nil {
		t.Fatal(err)
	}
	wantV := append([]tensor.Value(nil), tvp.Out.Vals...)

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			parallel.SetNumThreads(i%7 + 1)
		}
	}()

	for iter := 0; iter < 60; iter++ {
		st := parallel.Atomic
		if iter%2 == 1 {
			st = parallel.Privatized
		}
		opt := parallel.Options{Schedule: parallel.Dynamic, Strategy: st}
		if _, err := mp.ExecuteOMP(mats, opt); err != nil {
			t.Fatal(err)
		}
		for i, got := range mp.Out.Data {
			if !closeEnough(float64(got), float64(wantM[i])) {
				t.Fatalf("iter %d %v: Mttkrp out[%d] = %v, want %v", iter, st, i, got, wantM[i])
			}
		}
		if _, err := tvp.ExecuteOMP(v, opt); err != nil {
			t.Fatal(err)
		}
		for i, got := range tvp.Out.Vals {
			if !closeEnough(float64(got), float64(wantV[i])) {
				t.Fatalf("iter %d %v: Ttv out[%d] = %v, want %v", iter, st, i, got, wantV[i])
			}
		}
	}
	close(stop)
	<-done
}

// TestPrivatizedSteadyStateAllocations pins the workspace-pooling
// contract: after warm-up, a privatized ExecuteOMP takes all privatization
// scratch from the pool (zero workspace misses) and its residual per-call
// allocation — goroutine and closure bookkeeping — is orders of magnitude
// below one private output copy.
func TestPrivatizedSteadyStateAllocations(t *testing.T) {
	// Mode-0 output of 4096×16 values: one private copy is 256 KiB, so
	// the old alloc-per-call behaviour fails the bytes bound immediately.
	x := randTensor(920, []tensor.Index{4096, 64, 64}, 20000)
	r := 16
	mats := randMats(921, x, r)
	p, err := PrepareMttkrp(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	opt := parallel.Options{Schedule: parallel.Static, Threads: 4, Strategy: parallel.Privatized}
	for i := 0; i < 3; i++ { // warm the pool
		if _, err := p.ExecuteOMP(mats, opt); err != nil {
			t.Fatal(err)
		}
	}
	warm := parallel.SharedWorkspace().Stats()

	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := p.ExecuteOMP(mats, opt); err != nil {
			t.Fatal(err)
		}
	})
	st := parallel.SharedWorkspace().Stats()
	if st.Misses != warm.Misses {
		t.Fatalf("steady state missed the workspace pool: %d -> %d misses", warm.Misses, st.Misses)
	}
	// Scheduling scaffolding only: a handful of fixed-size allocations,
	// never the O(threads × OutElems) private buffers.
	if allocs > 32 {
		t.Fatalf("AllocsPerRun = %v, want <= 32", allocs)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		if _, err := p.ExecuteOMP(mats, opt); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	outBytes := uint64(len(p.Out.Data)) * 4
	if perRun > outBytes/4 {
		t.Fatalf("steady-state allocation %d B/run, want well under one %d B private copy", perRun, outBytes)
	}
}

// TestReduceWorkspaceStatsExposed sanity-checks the shared workspace's
// observability hook used by the harness.
func TestReduceWorkspaceStatsExposed(t *testing.T) {
	ws := parallel.SharedWorkspace()
	before := ws.Stats()
	ws.PutSet(ws.Set(2, 48))
	after := ws.Stats()
	if after.Hits+after.Misses <= before.Hits+before.Misses {
		t.Fatal("workspace stats did not advance")
	}
}
