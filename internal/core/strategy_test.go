package core

import (
	"runtime"
	"testing"

	"repro/internal/hicoo"
	"repro/internal/obs"
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
}

// strategyKernels builds one plan per kernel that resolves a strategy
// (COO and HiCOO Mttkrp; Ttv and Ttm are owner-computes only) over shared
// random inputs sized so every strategy has real work (collisions on the
// output rows).
func strategyKernels(t *testing.T) []strategyKernel {
	t.Helper()
	x := randTensor(900, []tensor.Index{40, 30, 25}, 4000)
	r := 8
	mats := randMats(901, x, r)
	h := hicoo.FromCOO(x, hicoo.DefaultBlockBits)

	mp, err := PrepareMttkrp(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	mhp, err := PrepareMttkrpHiCOO(h, 0, r)
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
	}
}

// TestAllStrategiesMatchSeq is the property the selector rests on: both
// Mttkrp kernels produce the same values (within float32 reassociation
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
		for _, st := range []parallel.Strategy{parallel.Auto, parallel.Atomic, parallel.Privatized} {
			for _, threads := range []int{1, 3, 8} {
				opt := parallel.Options{Schedule: parallel.Dynamic, Threads: threads, Strategy: st}
				last, err := k.runOMP(opt)
				if err != nil {
					t.Fatalf("%s/%v/T=%d: %v", k.name, st, threads, err)
				}
				if last == parallel.Auto {
					t.Fatalf("%s/%v/T=%d: LastStrategy not resolved", k.name, st, threads)
				}
				if st != parallel.Auto && last != st {
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
	mp, err := PrepareMttkrp(x, 0, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := mp.ExecuteSeq(mats); err != nil {
		t.Fatal(err)
	}
	wantM := append([]tensor.Value(nil), mp.Out.Data...)

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
	misses := obs.GetCounter("workspace.misses")
	warm := misses.Value()

	const runs = 50
	allocs := testing.AllocsPerRun(runs, func() {
		if _, err := p.ExecuteOMP(mats, opt); err != nil {
			t.Fatal(err)
		}
	})
	if st := misses.Value(); st != warm {
		t.Fatalf("steady state missed the workspace pool: %d -> %d misses", warm, st)
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
// observability hook used by the harness: the workspace.reuses and
// workspace.misses counters.
func TestReduceWorkspaceStatsExposed(t *testing.T) {
	ws := parallel.SharedWorkspace()
	before := obs.CounterSnapshot()
	ws.PutSet(ws.Set(2, 48))
	d := obs.DiffSnapshot(before, obs.CounterSnapshot())
	if d["workspace.reuses"]+d["workspace.misses"] != 1 {
		t.Fatalf("workspace counters did not advance by one acquisition: %v", d)
	}
}
