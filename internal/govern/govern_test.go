package govern

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// Leases returns the number of outstanding leases.
func (g *Governor) Leases() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.leases
}

func newTestGov(budget int64, wait time.Duration) *Governor {
	return New(Config{BudgetBytes: budget, AdmitWait: wait})
}

func TestAdmitChargesAndReleases(t *testing.T) {
	g := newTestGov(1000, 10*time.Millisecond)
	l, err := g.Admit(context.Background(), 600)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	if got := g.BytesInflight(); got != 600 {
		t.Fatalf("inflight = %d, want 600", got)
	}
	if g.Leases() != 1 {
		t.Fatalf("leases = %d, want 1", g.Leases())
	}
	l.Release()
	l.Release() // idempotent
	if got := g.BytesInflight(); got != 0 {
		t.Fatalf("inflight after release = %d, want 0", got)
	}
	if g.Leases() != 0 {
		t.Fatalf("leases after release = %d, want 0", g.Leases())
	}
}

func TestAdmitOverBudgetFailsFast(t *testing.T) {
	g := newTestGov(1000, time.Minute)
	start := time.Now()
	_, err := g.Admit(context.Background(), 1001)
	if !errors.Is(err, ErrOverBudget) {
		t.Fatalf("err = %v, want ErrOverBudget", err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("over-budget admit waited instead of failing fast")
	}
}

func TestAdmitShedsAfterWait(t *testing.T) {
	g := newTestGov(1000, 20*time.Millisecond)
	shedBefore := ctrShed.Value()
	l, err := g.Admit(context.Background(), 900)
	if err != nil {
		t.Fatalf("first admit: %v", err)
	}
	defer l.Release()
	_, err = g.Admit(context.Background(), 200)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("err = %v, want ErrOverloaded", err)
	}
	if ctrShed.Value() != shedBefore+1 {
		t.Fatalf("shed counter delta = %d, want 1", ctrShed.Value()-shedBefore)
	}
}

// A cheap request must be admitted while a huge one is parked waiting
// for headroom — the cost-aware behavior the one-size semaphore lacked.
func TestCheapAdmitsAroundWaitingHuge(t *testing.T) {
	g := newTestGov(1000, 2*time.Second)
	l, err := g.Admit(context.Background(), 800)
	if err != nil {
		t.Fatalf("setup admit: %v", err)
	}
	hugeDone := make(chan error, 1)
	go func() {
		hl, err := g.Admit(context.Background(), 900) // must wait for the 800 to release
		if hl != nil {
			hl.Release()
		}
		hugeDone <- err
	}()
	time.Sleep(10 * time.Millisecond) // let the huge request park
	cheap, err := g.Admit(context.Background(), 100)
	if err != nil {
		t.Fatalf("cheap admit while huge waits: %v", err)
	}
	cheap.Release()
	select {
	case err := <-hugeDone:
		t.Fatalf("huge admit finished before headroom appeared (err=%v)", err)
	default:
	}
	l.Release()
	if err := <-hugeDone; err != nil {
		t.Fatalf("huge admit after release: %v", err)
	}
}

func TestAdmitHonorsContextCancel(t *testing.T) {
	g := newTestGov(1000, time.Minute)
	l, err := g.Admit(context.Background(), 1000)
	if err != nil {
		t.Fatalf("setup admit: %v", err)
	}
	defer l.Release()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx, 500)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled waiter did not return")
	}
}

func TestDrainRejectsAndAwaitsIdle(t *testing.T) {
	g := newTestGov(1000, time.Minute)
	l, err := g.Admit(context.Background(), 400)
	if err != nil {
		t.Fatalf("admit: %v", err)
	}
	// A parked waiter must be woken with ErrDraining, not left hanging.
	waiterDone := make(chan error, 1)
	go func() {
		_, err := g.Admit(context.Background(), 700)
		waiterDone <- err
	}()
	time.Sleep(10 * time.Millisecond)
	g.BeginDrain()
	g.BeginDrain() // idempotent
	if !g.Draining() {
		t.Fatal("Draining() = false after BeginDrain")
	}
	select {
	case <-g.DrainChan():
	default:
		t.Fatal("DrainChan not closed after BeginDrain")
	}
	select {
	case err := <-waiterDone:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("parked waiter err = %v, want ErrDraining", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("parked waiter not woken by BeginDrain")
	}
	if _, err := g.Admit(context.Background(), 1); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit while draining = %v, want ErrDraining", err)
	}

	// AwaitIdle blocks on the outstanding lease, then returns.
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := g.AwaitIdle(short); err == nil {
		t.Fatal("AwaitIdle returned nil with a lease outstanding")
	}
	l.Release()
	ok, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if err := g.AwaitIdle(ok); err != nil {
		t.Fatalf("AwaitIdle after release: %v", err)
	}
}

// Concurrent churn under the race detector: invariants are that
// inflight never exceeds the budget and everything returns to zero.
func TestAdmitConcurrentChurn(t *testing.T) {
	g := newTestGov(10_000, 500*time.Millisecond)
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(cost int64) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l, err := g.Admit(context.Background(), cost)
				if err != nil {
					continue
				}
				if got := g.BytesInflight(); got > g.Budget() {
					t.Errorf("inflight %d exceeds budget %d", got, g.Budget())
				}
				l.Release()
			}
		}(int64(500 + 400*(i%4)))
	}
	wg.Wait()
	if got := g.BytesInflight(); got != 0 {
		t.Fatalf("inflight after churn = %d, want 0", got)
	}
	if g.Leases() != 0 {
		t.Fatalf("leases after churn = %d, want 0", g.Leases())
	}
}

func TestParseBytes(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		err  bool
	}{
		{"512", 512, false},
		{"512B", 512, false},
		{"1KiB", 1024, false},
		{"512MiB", 512 << 20, false},
		{"2GiB", 2 << 30, false},
		{"1.5GiB", 3 << 29, false},
		{"1g", 1 << 30, false},
		{"64kB", 64_000, false},
		{"10MB", 10_000_000, false},
		{"", 0, true},
		{"tenMiB", 0, true},
		{"-1GiB", 0, true},
	}
	for _, c := range cases {
		got, err := ParseBytes(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseBytes(%q) = %d, want error", c.in, got)
			}
			continue
		}
		if err != nil || got != c.want {
			t.Errorf("ParseBytes(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
}

func TestDefaultBudgetPositive(t *testing.T) {
	if b := DefaultBudget(); b <= 0 {
		t.Fatalf("DefaultBudget() = %d, want > 0", b)
	}
}
