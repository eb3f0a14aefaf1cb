package obs

import (
	"sync"
	"testing"
	"time"
)

// drain detaches any global tracer a prior test left behind.
func drain() { Disable() }

func TestDisabledPathInert(t *testing.T) {
	drain()
	if Current() != nil {
		t.Fatal("tracer enabled at test start")
	}
	sp := Begin("x", "v", PhaseChunk, 3)
	if sp.t != nil {
		t.Fatal("Begin with no tracer returned an enabled span")
	}
	sp.Attr("k", "v") // must not panic
	sp.End()          // must not panic
	Emit("e", "", PhaseFallback, -1)
	allocs := testing.AllocsPerRun(1000, func() {
		s := Begin("x", "v", PhaseChunk, 3)
		s.End()
	})
	if allocs != 0 {
		t.Fatalf("disabled Begin/End allocates %v per op, want 0", allocs)
	}
}

func TestSpanRecording(t *testing.T) {
	drain()
	tr := New()
	Enable(tr)
	defer Disable()

	sp := Begin("convert", "Ttv/HiCOO@omp", PhaseConvert, -1)
	time.Sleep(time.Millisecond)
	sp.Attr("blocks", "12")
	sp.End()
	Emit("fallback", "Ttv/HiCOO@omp", PhaseFallback, -1, Attr{"to", "serial"})

	spans := tr.Spans()
	if len(spans) != 2 {
		t.Fatalf("recorded %d spans, want 2", len(spans))
	}
	s := spans[0]
	if s.Name != "convert" || s.Variant != "Ttv/HiCOO@omp" || s.Phase != PhaseConvert {
		t.Fatalf("span = %+v", s)
	}
	if s.Dur <= 0 {
		t.Fatalf("span duration %v, want > 0", s.Dur)
	}
	if len(s.Attrs) != 1 || s.Attrs[0].Key != "blocks" {
		t.Fatalf("attrs = %v", s.Attrs)
	}
	ev := spans[1]
	if !ev.Instant || ev.Phase != PhaseFallback || ev.Dur != 0 {
		t.Fatalf("instant = %+v", ev)
	}
	if ev.Start < s.Start {
		t.Fatal("spans not sorted by start")
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	drain()
	tr := New()
	Enable(tr)
	defer Disable()
	sp := Begin("once", "", PhaseSort, 0)
	sp.End()
	sp.End()
	if n := tr.Len(); n != 1 {
		t.Fatalf("double End recorded %d spans, want 1", n)
	}
}

func TestConcurrentRecording(t *testing.T) {
	drain()
	tr := New()
	Enable(tr)
	defer Disable()
	const workers, per = 16, 100
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				sp := Begin("chunk", "v", PhaseChunk, w)
				sp.End()
			}
		}(w)
	}
	wg.Wait()
	if n := tr.Len(); n != workers*per {
		t.Fatalf("recorded %d spans, want %d", n, workers*per)
	}
	spans := tr.Spans()
	for i := 1; i < len(spans); i++ {
		if spans[i].Start < spans[i-1].Start {
			t.Fatal("Spans() not sorted by start offset")
		}
	}
}

func TestPhaseStrings(t *testing.T) {
	want := map[Phase]string{
		PhasePrepare: "prepare", PhaseConvert: "convert", PhaseSort: "sort",
		PhaseLaunch: "launch", PhaseChunk: "chunk",
		PhaseVerify: "verify", PhaseFallback: "fallback", PhaseTrial: "trial",
	}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Phase(%d).String() = %q, want %q", p, p.String(), s)
		}
	}
	if Phase(250).String() != "unknown" {
		t.Error("out-of-range phase should render unknown")
	}
}

func TestCounters(t *testing.T) {
	c := GetCounter("test.counter_a")
	if again := GetCounter("test.counter_a"); again != c {
		t.Fatal("GetCounter not idempotent")
	}
	before := CounterSnapshot()
	c.Inc()
	c.Add(4)
	after := CounterSnapshot()
	d := DiffSnapshot(before, after)
	if d["test.counter_a"] != 5 {
		t.Fatalf("delta = %v, want test.counter_a=5", d)
	}
	// A counter that did not move is elided from the diff.
	GetCounter("test.counter_idle")
	d2 := DiffSnapshot(CounterSnapshot(), CounterSnapshot())
	if _, ok := d2["test.counter_idle"]; ok {
		t.Fatal("idle counter should not appear in diff")
	}
	if _, ok := CounterSnapshot()["test.counter_idle"]; !ok {
		t.Fatal("a registered counter is missing from the snapshot")
	}
}

func TestCountingGate(t *testing.T) {
	if Counting() {
		t.Fatal("hot-path counting enabled at start")
	}
	EnableCounters(true)
	if !Counting() {
		t.Fatal("EnableCounters(true) did not take")
	}
	EnableCounters(false)
}
