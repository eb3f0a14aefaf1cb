package parallel

import (
	"sync/atomic"
	"testing"
	"testing/quick"
)

// coverageCheck runs For with the given options and verifies every index
// in [0, n) is visited exactly once.
func coverageCheck(t *testing.T, n int, opt Options) {
	t.Helper()
	seen := make([]int32, n)
	For(n, opt, func(lo, hi, w int) {
		if lo < 0 || hi > n || lo > hi {
			t.Errorf("bad range [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("%v n=%d: index %d visited %d times", opt.Schedule, n, i, c)
		}
	}
}

func TestForCoverageAllSchedules(t *testing.T) {
	sizes := []int{0, 1, 2, 7, 100, 1023, 10000}
	for _, sched := range []Schedule{Static, Dynamic, Guided} {
		for _, chunk := range []int{0, 1, 3, 64} {
			for _, n := range sizes {
				coverageCheck(t, n, Options{Schedule: sched, Chunk: chunk})
			}
		}
	}
}

func TestForCoverageProperty(t *testing.T) {
	f := func(nRaw uint16, schedRaw, chunkRaw, thrRaw uint8) bool {
		n := int(nRaw) % 5000
		opt := Options{
			Schedule: Schedule(schedRaw % 3),
			Chunk:    int(chunkRaw) % 17,
			Threads:  int(thrRaw)%9 + 1,
		}
		seen := make([]int32, n)
		For(n, opt, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestForWorkerIDsInRange(t *testing.T) {
	threads := 5
	For(1000, Options{Schedule: Dynamic, Threads: threads}, func(lo, hi, w int) {
		if w < 0 || w >= threads {
			t.Errorf("worker id %d out of range [0,%d)", w, threads)
		}
	})
}

func TestForSingleThreadRunsInline(t *testing.T) {
	calls := 0
	For(100, Options{Threads: 1}, func(lo, hi, w int) {
		calls++
		if lo != 0 || hi != 100 || w != 0 {
			t.Fatalf("single-thread got [%d,%d) w=%d", lo, hi, w)
		}
	})
	if calls != 1 {
		t.Fatalf("single-thread made %d calls, want 1", calls)
	}
}

func TestForUnknownSchedulePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	For(10, Options{Schedule: Schedule(99), Threads: 2}, func(lo, hi, w int) {})
}

func TestSetNumThreads(t *testing.T) {
	orig := NumThreads()
	defer SetNumThreads(orig)
	SetNumThreads(3)
	if NumThreads() != 3 {
		t.Fatalf("NumThreads = %d, want 3", NumThreads())
	}
	SetNumThreads(-1)
	if NumThreads() < 1 {
		t.Fatal("reset produced < 1 threads")
	}
}

func TestAtomicAddFloat32(t *testing.T) {
	var x float32
	n := 10000
	For(n, Options{Schedule: Dynamic, Threads: 8}, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			AtomicAddFloat32(&x, 0.5)
		}
	})
	if x != float32(n)*0.5 {
		t.Fatalf("x = %v, want %v", x, float32(n)*0.5)
	}
}

func TestScheduleString(t *testing.T) {
	if Static.String() != "static" || Dynamic.String() != "dynamic" || Guided.String() != "guided" {
		t.Fatal("Schedule.String wrong")
	}
	if Schedule(9).String() != "unknown" {
		t.Fatal("unknown schedule string wrong")
	}
}

// TestGuidedExactlyOnceUnderContention drives the Guided schedule's CAS
// claim loop as hard as possible — many more workers than cores, minimum
// chunk 1, tiny iteration space — and checks every index is still visited
// exactly once. Before the claim loop yielded on a lost race this
// configuration could livelock the winner off its core.
func TestGuidedExactlyOnceUnderContention(t *testing.T) {
	for iter := 0; iter < 20; iter++ {
		n := 257
		seen := make([]int32, n)
		For(n, Options{Schedule: Guided, Chunk: 1, Threads: 32}, func(lo, hi, w int) {
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&seen[i], 1)
			}
		})
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("iter %d: index %d visited %d times", iter, i, c)
			}
		}
	}
}

// TestResolveThreads pins the clamping rules per-worker state sizing
// depends on.
func TestResolveThreads(t *testing.T) {
	orig := NumThreads()
	defer SetNumThreads(orig)
	SetNumThreads(6)
	if got := ResolveThreads(100, Options{}); got != 6 {
		t.Fatalf("default = %d, want 6", got)
	}
	if got := ResolveThreads(100, Options{Threads: 3}); got != 3 {
		t.Fatalf("override = %d, want 3", got)
	}
	if got := ResolveThreads(2, Options{Threads: 8}); got != 2 {
		t.Fatalf("clamp to n = %d, want 2", got)
	}
	if got := ResolveThreads(0, Options{Threads: 8}); got != 8 {
		t.Fatalf("n=0 keeps request = %d, want 8", got)
	}
	if got := ResolveThreads(-5, Options{Threads: -2}); got < 1 {
		t.Fatalf("floor = %d, want >= 1", got)
	}
}
