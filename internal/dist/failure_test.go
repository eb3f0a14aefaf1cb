package dist

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/tensor"
)

// deadline bounds every failure-path test: on the pre-abort code these
// scenarios wedge forever (a failed rank left the ring without a word
// and its peers blocked in recvLeft), so the tests fail by timeout
// instead of hanging CI.
const deadline = 10 * time.Second

// withDeadline runs fn and fails the test if it does not return in
// time — the regression harness for the seed deadlock.
func withDeadline(t *testing.T, what string, fn func()) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(deadline):
		t.Fatal("deadlock: " + what + " did not return within the deadline " +
			"(rank failure left peers blocked in the ring — the seed dist bug)")
	}
}

// TestMttkrpRankFailureReturnsTypedError is the deadlock regression
// test: one worker fails its Mttkrp part through Options.Inject and the
// rank loop must return promptly with a typed *RankError naming that
// worker's stable id (not its ring position) and wrapping the cause.
// Before the abort protocol the failing rank returned before
// AllReduceSum, every peer blocked forever on a ring receive, and
// Comm.Run's WaitGroup never drained.
func TestMttkrpRankFailureReturnsTypedError(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := tensor.RandomCOO([]tensor.Index{30, 25, 20}, 2000, rng)
	r := 8
	mats := testMats(x, r, rng)
	boom := errors.New("injected rank fault")
	e, err := NewEngine(x, Options{Ranks: 4, Inject: func(attempt, worker int) error {
		if worker == 6 {
			return boom
		}
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	workers := []int{0, 1, 6, 3} // worker 6 sits at ring rank 2
	s, err := e.mttkrpStep(0, mats, r)(len(workers))
	if err != nil {
		t.Fatal(err)
	}
	withDeadline(t, "the rank loop with a failing worker", func() {
		_, err = e.rankLoop(context.Background(), "Mttkrp", 0, workers, 0, s)
	})
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("want *RankError, got %T: %v", err, err)
	}
	if re.Rank != 6 {
		t.Fatalf("failure attributed to worker %d, want 6", re.Rank)
	}
	if !errors.Is(err, boom) {
		t.Fatalf("root cause lost: %v", err)
	}
	if st := e.Stats(); st.CommBytes != 0 || st.CommMessages != 0 {
		t.Fatalf("a failed attempt's traffic was booked: %+v", st)
	}
}

// TestAbortUnblocksCollectives pins the abort protocol at the Comm
// level: peers blocked inside AllReduceSum and Gather unwind with
// ErrAborted as soon as any rank aborts, and the communicator reports
// the root cause.
func TestAbortUnblocksCollectives(t *testing.T) {
	boom := errors.New("simulated node loss")
	for _, collective := range []string{"allreduce", "gather"} {
		p := 4
		c := NewCommMust(p)
		errs := make([]error, p)
		withDeadline(t, collective+" with an aborting rank", func() {
			c.Run(func(rank int) {
				if rank == 1 {
					c.Abort(rank, boom)
					return
				}
				buf := make([]tensor.Value, 64)
				if collective == "allreduce" {
					errs[rank] = c.AllReduceSum(rank, buf)
				} else {
					_, errs[rank] = c.Gather(rank, buf)
				}
			})
		})
		for rank, err := range errs {
			if rank == 1 {
				continue
			}
			// A gather's non-root senders may have completed their
			// (buffered) send before the abort landed; the root — and
			// every allreduce peer — must unwind with ErrAborted.
			mustErr := collective == "allreduce" || rank == 0
			if mustErr && !errors.Is(err, ErrAborted) {
				t.Fatalf("%s rank %d: want ErrAborted, got %v", collective, rank, err)
			}
			if err != nil && !errors.Is(err, ErrAborted) {
				t.Fatalf("%s rank %d: unexpected error %v", collective, rank, err)
			}
		}
		var re *RankError
		if err := c.Err(); !errors.As(err, &re) || re.Rank != 1 || !errors.Is(err, boom) {
			t.Fatalf("%s: Comm.Err() = %v, want *RankError{Rank:1} wrapping the cause", collective, c.Err())
		}
	}
}

// TestAbortIsIdempotent: later aborts must not panic (double close) and
// the first recorded cause wins.
func TestAbortIsIdempotent(t *testing.T) {
	c := NewCommMust(3)
	first := errors.New("first")
	c.Abort(0, first)
	c.Abort(1, errors.New("second"))
	var re *RankError
	if err := c.Err(); !errors.As(err, &re) || re.Rank != 0 || !errors.Is(err, first) {
		t.Fatalf("Err() = %v, want the first abort's cause", c.Err())
	}
}

// TestMttkrpDegenerateShards pins the p > nnz case: with more workers
// than non-zeros some shards and fiber ranges are empty, and those ranks
// must contribute a zero partial or an empty segment (still joining the
// collective) instead of erroring.
func TestMttkrpDegenerateShards(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	x := tensor.RandomCOO([]tensor.Index{12, 10, 8}, 3, rng) // 3 nnz
	r := 4
	mats := testMats(x, r, rng)
	v := tensor.RandomVector(int(x.Dims[0]), rng)
	want, err := core.Mttkrp(x, mats, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantTtv, err := core.Ttv(x, v, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{4, 7} { // both > nnz
		for _, format := range []Format{FormatCOO, FormatHiCOO} {
			e, err := NewEngine(x, Options{Ranks: p, Format: format})
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Mttkrp(context.Background(), 0, mats, r)
			if err != nil {
				t.Fatalf("p=%d (> nnz=%d) %v: %v", p, x.NNZ(), format, err)
			}
			for i := range want.Data {
				if math.Abs(float64(res.Out.Data[i]-want.Data[i])) > 1e-3 {
					t.Fatalf("p=%d %v element %d: %v vs %v", p, format, i, res.Out.Data[i], want.Data[i])
				}
			}
			tr, err := e.Ttv(context.Background(), 0, v)
			if err != nil {
				t.Fatalf("p=%d (> nnz=%d) %v Ttv: %v", p, x.NNZ(), format, err)
			}
			if d := tensor.AbsDiff(tr.Out, wantTtv); d > 1e-3 {
				t.Fatalf("p=%d %v Ttv: diff %v", p, format, d)
			}
		}
	}
}

// TestEnginePersistentFailureReshards is the tentpole acceptance
// scenario: one worker fails on every attempt (a persistently dead
// node). The run must complete via abort → re-shard → retry (no hang,
// no final error), with the failure and the retry surfaced in the
// engine stats and the shared resilience counters.
func TestEnginePersistentFailureReshards(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	x := tensor.RandomCOO([]tensor.Index{40, 35, 30}, 3000, rng)
	r := 8
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	want, err := core.Mttkrp(x, mats, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, format := range []Format{FormatCOO, FormatHiCOO} {
		retriesBefore := obs.GetCounter("resilience.retries").Value()
		reshardsBefore := obs.GetCounter("dist.reshards").Value()
		failuresBefore := obs.GetCounter("dist.rank_failures").Value()
		e, err := NewEngine(x, Options{
			Ranks:  4,
			Format: format,
			Inject: func(attempt, worker int) error {
				if worker == 2 { // dead node: fails on every attempt
					return errors.New("persistent node fault")
				}
				return nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		var res *MttkrpResult
		withDeadline(t, "engine Mttkrp with a persistently failing worker", func() {
			res, err = e.Mttkrp(context.Background(), 1, mats, r)
		})
		if err != nil {
			t.Fatalf("%v: persistent failure should re-shard and complete, got %v", format, err)
		}
		for i := range want.Data {
			g, w := float64(res.Out.Data[i]), float64(want.Data[i])
			if math.Abs(g-w) > 2e-3*math.Max(1, math.Abs(w)) {
				t.Fatalf("%v element %d: %v vs %v", format, i, g, w)
			}
		}
		st := e.Stats()
		if st.Workers != 3 {
			t.Fatalf("%v: %d live workers, want 3 (worker 2 removed)", format, st.Workers)
		}
		if st.RankFailures != 1 || st.Reshards != 1 || st.Attempts != 2 {
			t.Fatalf("%v: stats %+v, want 1 failure, 1 re-shard, 2 attempts", format, st)
		}
		if st.CommBytes <= 0 || st.CommMessages <= 0 {
			t.Fatalf("%v: comm not accounted: %+v", format, st)
		}
		if got := obs.GetCounter("resilience.retries").Value() - retriesBefore; got != 1 {
			t.Fatalf("%v: resilience.retries advanced by %d, want 1", format, got)
		}
		if got := obs.GetCounter("dist.reshards").Value() - reshardsBefore; got != 1 {
			t.Fatalf("%v: dist.reshards advanced by %d, want 1", format, got)
		}
		if got := obs.GetCounter("dist.rank_failures").Value() - failuresBefore; got != 1 {
			t.Fatalf("%v: dist.rank_failures advanced by %d, want 1", format, got)
		}

		// The same dead node must not disturb subsequent calls: it is
		// already removed, so no further failures or retries occur.
		if _, err := e.Mttkrp(context.Background(), 0, mats, r); err != nil {
			t.Fatalf("%v: post-reshard call failed: %v", format, err)
		}
		if st := e.Stats(); st.RankFailures != 1 {
			t.Fatalf("%v: dead worker failed again after removal: %+v", format, st)
		}
	}
}

// TestEngineExhaustsReshardBudget: when every worker is faulty the
// engine must give up with a typed resilience.ErrExhausted — bounded
// retries, never a hang.
func TestEngineExhaustsReshardBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	x := tensor.RandomCOO([]tensor.Index{20, 15, 10}, 500, rng)
	r := 4
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	e, err := NewEngine(x, Options{
		Ranks:  3,
		Inject: func(attempt, worker int) error { return errors.New("every node is on fire") },
	})
	if err != nil {
		t.Fatal(err)
	}
	withDeadline(t, "engine Mttkrp with all workers failing", func() {
		_, err = e.Mttkrp(context.Background(), 0, mats, r)
	})
	if !errors.Is(err, resilience.ErrExhausted) {
		t.Fatalf("want ErrExhausted, got %v", err)
	}
	var re *RankError
	if !errors.As(err, &re) {
		t.Fatalf("exhausted error should carry the last *RankError: %v", err)
	}
}

// TestEnginePanicContainment: a panicking shard kernel is contained per
// worker (resilience.Run), converted to an abort, and re-sharded around.
func TestEnginePanicContainment(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	x := tensor.RandomCOO([]tensor.Index{20, 15, 10}, 500, rng)
	v := tensor.RandomVector(15, rng)
	want, err := core.Ttv(x, v, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(x, Options{
		Ranks: 4,
		Inject: func(attempt, worker int) error {
			if worker == 0 && attempt == 0 {
				panic("transient cosmic ray")
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var res *TtvResult
	withDeadline(t, "engine Ttv with a panicking worker", func() {
		res, err = e.Ttv(context.Background(), 1, v)
	})
	if err != nil {
		t.Fatalf("panic should be contained and re-sharded around, got %v", err)
	}
	if d := tensor.AbsDiff(res.Out, want); d > 1e-3 {
		t.Fatalf("diff %v after recovery", d)
	}
	if st := e.Stats(); st.RankFailures != 1 || st.Workers != 3 {
		t.Fatalf("stats %+v, want the panicking worker counted and removed", e.Stats())
	}
}

// TestEngineChaos sweeps seeded random transient failures across
// formats and modes under the race detector: every scenario must either
// complete with a correct result or fail typed — never hang, never
// panic the process.
func TestEngineChaos(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	x := tensor.RandomCOO([]tensor.Index{30, 24, 18}, 1500, rng)
	r := 4
	mats := make([]*tensor.Matrix, 3)
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	refs := make([]*tensor.Matrix, 3)
	for mode := range refs {
		ref, err := core.Mttkrp(x, mats, mode)
		if err != nil {
			t.Fatal(err)
		}
		refs[mode] = ref
	}
	for seed := int64(0); seed < 6; seed++ {
		for _, format := range []Format{FormatCOO, FormatHiCOO} {
			chaos := rand.New(rand.NewSource(seed))
			// Each worker fails on at most its first attempt, with
			// probability 1/2 — transient faults the re-shard loop must
			// absorb. Workers run concurrently, so the fault table needs
			// its own lock.
			var faultMu sync.Mutex
			faulty := make(map[int]bool)
			for w := 0; w < 4; w++ {
				faulty[w] = chaos.Intn(2) == 0
			}
			e, err := NewEngine(x, Options{
				Ranks:  4,
				Format: format,
				Inject: func(attempt, worker int) error {
					faultMu.Lock()
					defer faultMu.Unlock()
					if faulty[worker] {
						faulty[worker] = false
						return errors.New("transient chaos fault")
					}
					return nil
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			for mode := 0; mode < 3; mode++ {
				var res *MttkrpResult
				withDeadline(t, "chaos engine Mttkrp", func() {
					res, err = e.Mttkrp(context.Background(), mode, mats, r)
				})
				if err != nil {
					if !errors.Is(err, resilience.ErrExhausted) {
						t.Fatalf("seed=%d %v mode=%d: untyped failure %v", seed, format, mode, err)
					}
					continue
				}
				for i := range refs[mode].Data {
					g, w := float64(res.Out.Data[i]), float64(refs[mode].Data[i])
					if math.Abs(g-w) > 2e-3*math.Max(1, math.Abs(w)) {
						t.Fatalf("seed=%d %v mode=%d element %d: %v vs %v", seed, format, mode, i, g, w)
					}
				}
			}
		}
	}
}

// TestPartitionByMode pins the mode-wise sharding invariants: every
// non-zero lands in exactly one shard, in the shard owning its output
// row.
func TestPartitionByMode(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := tensor.RandomCOO([]tensor.Index{17, 13, 9}, 700, rng)
	for _, p := range []int{1, 2, 5, 20} { // 20 > every dim
		for mode := 0; mode < 3; mode++ {
			shards, err := PartitionByMode(x, mode, p)
			if err != nil {
				t.Fatal(err)
			}
			total := 0
			rows := int(x.Dims[mode])
			for w, s := range shards {
				total += s.NNZ()
				lo, hi := w*rows/p, (w+1)*rows/p
				for _, i := range s.Inds[mode] {
					if int(i) < lo || int(i) >= hi {
						t.Fatalf("p=%d mode=%d: shard %d owns rows [%d,%d) but holds row %d", p, mode, w, lo, hi, i)
					}
				}
			}
			if total != x.NNZ() {
				t.Fatalf("p=%d mode=%d: shards hold %d nnz, want %d", p, mode, total, x.NNZ())
			}
		}
	}
	if _, err := PartitionByMode(x, 9, 2); err == nil {
		t.Fatal("expected mode-range error")
	}
	if _, err := PartitionByMode(x, 0, 0); err == nil {
		t.Fatal("expected worker-count error")
	}
}
