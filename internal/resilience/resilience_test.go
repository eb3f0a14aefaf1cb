package resilience

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/gpusim"
	"repro/internal/parallel"
)

func TestRunContainsDirectPanic(t *testing.T) {
	err := Run(Label{Kernel: "Tew", Format: "COO", Backend: "omp"}, func() error {
		panic("boom")
	})
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %v (%T), want *KernelError", err, err)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic in chain", err)
	}
	if ke.Recovered != "boom" {
		t.Fatalf("Recovered = %v, want boom", ke.Recovered)
	}
	if len(ke.Stack) == 0 {
		t.Fatal("expected a captured stack")
	}
}

func TestRunContainsWorkerPanic(t *testing.T) {
	err := Run(Label{Kernel: "Ttv"}, func() error {
		return parallel.For(100, parallel.Options{Schedule: parallel.Dynamic, Chunk: 1, Threads: 4}, func(lo, _, _ int) {
			if lo >= 50 {
				panic("worker boom")
			}
		})
	})
	var ke *KernelError
	if !errors.As(err, &ke) {
		t.Fatalf("err = %v (%T), want *KernelError", err, err)
	}
	if !errors.Is(err, ErrPanic) {
		t.Fatalf("err = %v, want ErrPanic in chain", err)
	}
	if ke.Recovered != "worker boom" {
		t.Fatalf("Recovered = %v, want the original panic value", ke.Recovered)
	}
	if len(ke.Stack) == 0 {
		t.Fatal("expected the worker goroutine's stack")
	}
}

func TestRunWrapsPlainError(t *testing.T) {
	base := errors.New("bad input")
	err := Run(Label{Kernel: "Ttm"}, func() error { return base })
	var ke *KernelError
	if !errors.As(err, &ke) || !errors.Is(err, base) {
		t.Fatalf("err = %v, want *KernelError wrapping the cause", err)
	}
	if got := Run(Label{}, func() error { return nil }); got != nil {
		t.Fatalf("nil error became %v", got)
	}
	// An already-typed error passes through unchanged.
	typed := &KernelError{Label: Label{Kernel: "X"}, Err: base}
	if got := Run(Label{Kernel: "Y"}, func() error { return typed }); got != error(typed) {
		t.Fatalf("typed error was re-wrapped: %v", got)
	}
}

func TestExecDeadlineEnforcedOnStall(t *testing.T) {
	const timeout = 60 * time.Millisecond
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	release := make(chan struct{})
	start := time.Now()
	err, settled := Exec(ctx, Label{Kernel: "stall"}, func(context.Context) error {
		<-release // ignores its context entirely
		return nil
	})
	elapsed := time.Since(start)
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	if elapsed > 2*timeout {
		t.Fatalf("Exec returned after %v, want <= %v", elapsed, 2*timeout)
	}
	close(release)
	select {
	case <-settled:
	case <-time.After(time.Second):
		t.Fatal("abandoned goroutine never settled")
	}
}

func TestExecFastPath(t *testing.T) {
	err, settled := Exec(context.Background(), Label{}, func(context.Context) error { return nil })
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	select {
	case <-settled:
	case <-time.After(time.Second):
		t.Fatal("settled not closed after fn returned")
	}
}

func TestCheckFinite(t *testing.T) {
	if err := CheckFinite([]float32{1, -2, 0}); err != nil {
		t.Fatalf("finite slice rejected: %v", err)
	}
	if err := CheckFinite([]float32{1, float32(math.NaN())}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("NaN not detected: %v", err)
	}
	if err := CheckFinite([]float32{float32(math.Inf(1))}); !errors.Is(err, ErrNonFinite) {
		t.Fatalf("Inf not detected: %v", err)
	}
}

func okRung(backend string) Rung {
	return Rung{Backend: backend, Exec: func(context.Context) error { return nil }}
}

func failRung(backend string) Rung {
	return Rung{Backend: backend, Exec: func(context.Context) error { return errors.New(backend + " failed") }}
}

func TestRunnerRecoversTransientFault(t *testing.T) {
	var calls atomic.Int32
	r := &Runner{}
	rep := r.Do(context.Background(), Trial{
		Label:   Label{Kernel: "Mttkrp"},
		Retries: 2,
		Rungs: []Rung{{Backend: "omp", Exec: func(context.Context) error {
			if calls.Add(1) == 1 {
				return errors.New("transient")
			}
			return nil
		}}},
	})
	if rep.Outcome != OutcomeRecovered || rep.Backend != "omp" || rep.Attempts != 2 {
		t.Fatalf("report = %+v, want recovered on omp after 2 attempts", rep)
	}
	if rep.String() != "recovered" {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestRunnerFallsBackAndVerifies(t *testing.T) {
	var verified atomic.Int32
	r := &Runner{}
	rep := r.Do(context.Background(), Trial{
		Label:   Label{Kernel: "Ttv"},
		Retries: 1,
		Rungs:   []Rung{failRung("gpu"), okRung("serial")},
		Verify:  func() error { verified.Add(1); return nil },
	})
	if rep.Outcome != OutcomeFellBack || rep.Backend != "serial" || rep.FellFrom != "gpu" {
		t.Fatalf("report = %+v, want fell-back:serial from gpu", rep)
	}
	if rep.Attempts != 3 { // 2 gpu attempts + 1 serial
		t.Fatalf("Attempts = %d, want 3", rep.Attempts)
	}
	if verified.Load() != 1 {
		t.Fatal("fallback result was not verified")
	}
	if rep.String() != "fell-back:serial" {
		t.Fatalf("String() = %q", rep.String())
	}
}

func TestRunnerVerifyRejectionIsTerminal(t *testing.T) {
	r := &Runner{}
	rep := r.Do(context.Background(), Trial{
		Label:  Label{Kernel: "Ttm"},
		Rungs:  []Rung{failRung("gpu"), okRung("serial")},
		Verify: func() error { return errors.New("mismatch vs reference") },
	})
	if rep.Outcome != OutcomeFailed || rep.Err == nil {
		t.Fatalf("report = %+v, want failed with error", rep)
	}
}

func TestRunnerCheckFailureIsTerminal(t *testing.T) {
	r := &Runner{}
	rep := r.Do(context.Background(), Trial{
		Label: Label{Kernel: "Tew"},
		Rungs: []Rung{okRung("omp"), okRung("serial")},
		Check: func() error { return CheckFinite([]float32{float32(math.NaN())}) },
	})
	if rep.Outcome != OutcomeFailed || !errors.Is(rep.Err, ErrNonFinite) {
		t.Fatalf("report = %+v, want failed with ErrNonFinite", rep)
	}
	if rep.Attempts != 1 {
		t.Fatalf("Attempts = %d: a data failure must not fall back", rep.Attempts)
	}
}

func TestRunnerExhaustsLadder(t *testing.T) {
	r := &Runner{}
	rep := r.Do(context.Background(), Trial{
		Label: Label{Kernel: "Ts"},
		Rungs: []Rung{failRung("gpu"), failRung("omp"), failRung("serial")},
	})
	if rep.Outcome != OutcomeFailed || !errors.Is(rep.Err, ErrExhausted) {
		t.Fatalf("report = %+v, want failed with ErrExhausted", rep)
	}
}

func TestRunnerTimeoutWithinTwiceDeadline(t *testing.T) {
	const timeout = 100 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	r := &Runner{DrainGrace: 20 * time.Millisecond}
	start := time.Now()
	rep := r.Do(context.Background(), Trial{
		Label:   Label{Kernel: "Mttkrp"},
		Timeout: timeout,
		Retries: 3, // must not matter: no retry after a deadline
		Rungs: []Rung{
			{Backend: "omp", Exec: func(context.Context) error { <-release; return nil }},
			okRung("serial"), // must not run: the budget is spent
		},
	})
	elapsed := time.Since(start)
	if rep.Outcome != OutcomeTimeout || !errors.Is(rep.Err, ErrDeadline) {
		t.Fatalf("report = %+v, want timeout with ErrDeadline", rep)
	}
	if elapsed > 2*timeout {
		t.Fatalf("trial took %v, want <= %v", elapsed, 2*timeout)
	}
	if rep.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 (no retry, no fallback after deadline)", rep.Attempts)
	}
}

func TestRunnerBreakerOpensSkipsAndProbes(t *testing.T) {
	var gpuAttempts atomic.Int32
	r := &Runner{BreakerThreshold: 2, BreakerCooldown: 3}
	trial := Trial{
		Label: Label{Kernel: "Ttv"},
		Rungs: []Rung{
			{Backend: "gpu", Exec: func(context.Context) error {
				gpuAttempts.Add(1)
				return errors.New("gpu dead")
			}},
			okRung("serial"),
		},
	}
	// Trials 1-2 attempt gpu and fail it; the breaker opens at 2.
	for i := 0; i < 2; i++ {
		if rep := r.Do(context.Background(), trial); rep.Outcome != OutcomeFellBack {
			t.Fatalf("trial %d: %+v", i, rep)
		}
	}
	if !r.BreakerOpen("gpu") {
		t.Fatal("breaker should be open after 2 consecutive failures")
	}
	// Trials 3-5 skip gpu entirely (cooldown 3).
	for i := 0; i < 3; i++ {
		before := gpuAttempts.Load()
		rep := r.Do(context.Background(), trial)
		if rep.Outcome != OutcomeFellBack || gpuAttempts.Load() != before {
			t.Fatalf("cooldown trial %d attempted gpu: %+v", i, rep)
		}
	}
	// Trial 6 is the half-open probe: gpu attempted once, fails, re-opens.
	before := gpuAttempts.Load()
	r.Do(context.Background(), trial)
	if gpuAttempts.Load() != before+1 {
		t.Fatalf("half-open probe did not attempt gpu (attempts %d -> %d)", before, gpuAttempts.Load())
	}
	if !r.BreakerOpen("gpu") {
		t.Fatal("breaker should re-open after a failed probe")
	}
}

func TestRunnerNoRungs(t *testing.T) {
	r := &Runner{}
	if rep := r.Do(context.Background(), Trial{Label: Label{Kernel: "x"}}); rep.Outcome != OutcomeFailed {
		t.Fatalf("report = %+v", rep)
	}
}

func TestInjectorDeterministicFromSeed(t *testing.T) {
	a, b := NewInjector(42), NewInjector(42)
	for i := 0; i < 16; i++ {
		fa := a.ArmRandom(context.Background(), 10, 0)
		fb := b.ArmRandom(context.Background(), 10, 0)
		if fa != fb {
			t.Fatalf("draw %d: %v vs %v — same seed must give the same schedule", i, fa, fb)
		}
	}
	c := NewInjector(43)
	same := true
	for i := 0; i < 16; i++ {
		if a.ArmRandom(context.Background(), 10, 0) != c.ArmRandom(context.Background(), 10, 0) {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced an identical 16-draw schedule")
	}
}

func TestInjectorPanicOnNthCall(t *testing.T) {
	in := NewInjector(1)
	in.Arm(context.Background(), FaultPanic, 2, 0)
	in.chunkFault(0) // call 1: no fire
	fired := func() (fired bool) {
		defer func() { fired = recover() != nil }()
		in.chunkFault(0) // call 2: fires
		return false
	}()
	if !fired || in.Injected() != 1 {
		t.Fatalf("fired=%v injected=%d, want panic on exactly the 2nd call", fired, in.Injected())
	}
	in.chunkFault(0) // call 3: no fire
	if in.Injected() != 1 {
		t.Fatalf("injected=%d after call 3, want 1", in.Injected())
	}
}

func TestInjectorLaunchFailEveryCall(t *testing.T) {
	in := NewInjector(1)
	in.Arm(context.Background(), FaultLaunchFail, 0, 0)
	for i := 0; i < 3; i++ {
		if err := in.launchFault(); err == nil {
			t.Fatalf("launch %d did not fail under a persistent fault", i)
		}
	}
	if in.Injected() != 3 {
		t.Fatalf("injected = %d, want 3", in.Injected())
	}
	in.Disarm()
	if err := in.launchFault(); err != nil {
		t.Fatalf("disarmed injector still fired: %v", err)
	}
}

func TestInjectorStallBoundedByContext(t *testing.T) {
	in := NewInjector(1)
	ctx, cancel := context.WithCancel(context.Background())
	in.Arm(ctx, FaultStall, 0, 10*time.Second)
	done := make(chan struct{})
	start := time.Now()
	go func() {
		in.chunkFault(0)
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("stalled worker did not unblock on context cancel")
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("stall ran %v past cancel", elapsed)
	}
}

// InstallDevice attaches the injector to a device's launch and block
// hooks (the GPU-side injection points).
func (in *Injector) InstallDevice(d *gpusim.Device) {
	d.SetLaunchHook(in.launchFault)
	d.SetBlockHook(in.blockFault)
}

// UninstallDevice detaches both device hooks.
func (in *Injector) UninstallDevice(d *gpusim.Device) {
	d.SetLaunchHook(nil)
	d.SetBlockHook(nil)
}

// blockFault is the gpusim per-block hook; it shares the chunk
// counter so "the nth parallel unit" means the same thing on either
// backend.
func (in *Injector) blockFault(block int) { in.chunkFault(block) }

// launchFault is the gpusim launch hook: it fails the armed ordinal's
// launch before any block runs.
func (in *Injector) launchFault() error {
	f, nth, _, _ := in.snapshot()
	if f != FaultLaunchFail {
		return nil
	}
	n := in.launches.Add(1)
	if nth != 0 && n != nth {
		return nil
	}
	in.injected.Add(1)
	return fmt.Errorf("resilience: injected launch failure (launch %d)", n)
}
