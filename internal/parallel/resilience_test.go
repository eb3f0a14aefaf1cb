package parallel

// Tests for the fault-containment surface of For: cooperative
// cancellation via Options.Ctx, worker-panic conversion to *WorkerPanic
// re-raised on the caller's goroutine, and the chunk-level fault hook.

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestForReturnsErrDeadlineOnCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // already expired: the loop must stop at chunk granularity
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, threads := range []int{1, 4} {
			var visited atomic.Int64
			err := For(1_000_000, Options{Schedule: sched, Threads: threads, Ctx: ctx}, func(lo, hi, _ int) {
				visited.Add(int64(hi - lo))
			})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("%v/T=%d: err = %v, want ErrDeadline", sched, threads, err)
			}
			if visited.Load() == 1_000_000 {
				t.Fatalf("%v/T=%d: loop ran to completion despite a dead context", sched, threads)
			}
		}
	}
}

func TestForCancelledMidLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var visited atomic.Int64
	err := For(1_000_000, Options{Schedule: Dynamic, Chunk: 64, Threads: 4, Ctx: ctx}, func(lo, hi, _ int) {
		if visited.Add(int64(hi-lo)) > 10_000 {
			cancel()
		}
	})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if visited.Load() == 1_000_000 {
		t.Fatal("loop completed despite mid-loop cancellation")
	}
}

func TestForCompletesWithLiveContext(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	var visited atomic.Int64
	err := For(10_000, Options{Schedule: Static, Threads: 4, Ctx: ctx}, func(lo, hi, _ int) {
		visited.Add(int64(hi - lo))
	})
	if err != nil || visited.Load() != 10_000 {
		t.Fatalf("err=%v visited=%d, want full completion", err, visited.Load())
	}
}

func TestForReRaisesWorkerPanicOnCaller(t *testing.T) {
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		func() {
			defer func() {
				r := recover()
				wp, ok := r.(*WorkerPanic)
				if !ok {
					t.Fatalf("%v: recovered %v (%T), want *WorkerPanic", sched, r, r)
				}
				if wp.Value != "boom" || len(wp.Stack) == 0 {
					t.Fatalf("%v: WorkerPanic = %+v", sched, wp)
				}
			}()
			For(1000, Options{Schedule: sched, Threads: 4, Chunk: 8}, func(lo, _, _ int) {
				if lo >= 500 {
					panic("boom")
				}
			})
			t.Fatalf("%v: For returned instead of re-raising the panic", sched)
		}()
	}
}

func TestForPanicAbortsRemainingChunks(t *testing.T) {
	var visited atomic.Int64
	func() {
		defer func() { recover() }()
		For(1_000_000, Options{Schedule: Dynamic, Chunk: 16, Threads: 4}, func(lo, hi, _ int) {
			if visited.Add(int64(hi-lo)) > 1000 {
				panic("stop")
			}
		})
	}()
	// Give no precise bound (other workers may finish in-flight chunks)
	// but the vast majority of the range must have been abandoned.
	if v := visited.Load(); v > 500_000 {
		t.Fatalf("visited %d of 1M iterations after an early panic", v)
	}
}

func TestChunkHookRunsPerChunkAndClears(t *testing.T) {
	var calls atomic.Int64
	SetChunkHook(func(worker int) { calls.Add(1) })
	err := For(1000, Options{Schedule: Dynamic, Chunk: 100, Threads: 2}, func(lo, hi, _ int) {})
	SetChunkHook(nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls.Load() < 10 {
		t.Fatalf("hook ran %d times, want one call per 100-iteration chunk", calls.Load())
	}
	before := calls.Load()
	if err := For(1000, Options{Threads: 2}, func(lo, hi, _ int) {}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != before {
		t.Fatal("cleared hook still ran")
	}
}

func TestChunkHookPanicIsContainedAsWorkerPanic(t *testing.T) {
	SetChunkHook(func(worker int) { panic("injected") })
	defer SetChunkHook(nil)
	var wp *WorkerPanic
	func() {
		defer func() {
			if r := recover(); r != nil {
				wp, _ = r.(*WorkerPanic)
			}
		}()
		For(1000, Options{Schedule: Static, Threads: 4}, func(lo, hi, _ int) {})
	}()
	if wp == nil || wp.Value != "injected" {
		t.Fatalf("WorkerPanic = %+v, want the hook's panic value", wp)
	}
}

func TestForSerialWithHookKeepsChunkGranularity(t *testing.T) {
	// At one thread a hook (or context) must still be consulted per
	// chunk, not once for the whole range.
	var calls atomic.Int64
	SetChunkHook(func(worker int) { calls.Add(1) })
	defer SetChunkHook(nil)
	if err := For(100_000, Options{Threads: 1, Chunk: 1000}, func(lo, hi, _ int) {}); err != nil {
		t.Fatal(err)
	}
	if calls.Load() != 100 {
		t.Fatalf("hook ran %d times at T=1, want 100 chunks", calls.Load())
	}
}
