package resilience

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/gpusim"
	"repro/internal/parallel"
)

// Fault is a failure mode the injector can arm.
type Fault int

const (
	// FaultNone disarms injection.
	FaultNone Fault = iota
	// FaultPanic panics inside a parallel.For chunk or gpusim block.
	FaultPanic
	// FaultStall blocks a worker past the trial deadline.
	FaultStall
	// FaultLaunchFail fails a gpusim launch before any block runs.
	FaultLaunchFail
)

func (f Fault) String() string {
	switch f {
	case FaultNone:
		return "none"
	case FaultPanic:
		return "panic"
	case FaultStall:
		return "stall"
	default:
		return "launch-fail"
	}
}

// Injector deterministically injects faults into the parallel and
// gpusim substrates through their hook points. One injector arms one
// fault at a time; the chaos tests re-arm it per scenario. All methods
// are safe for concurrent use with running kernels.
type Injector struct {
	rng *rand.Rand // seeded; only read under mu (ArmRandom)

	mu    sync.Mutex
	fault Fault
	nth   int64           // fire on the nth hook call, 1-based; 0 = every call
	stall time.Duration   // FaultStall block time (bounded by ctx)
	ctx   context.Context // unblocks armed stalls when done

	calls    atomic.Int64 // chunk/block hook invocations since Arm
	launches atomic.Int64 // launch hook invocations since Arm
	injected atomic.Int64 // faults actually fired since Arm
}

// NewInjector returns an injector whose ArmRandom draws are fully
// determined by seed, so a chaos run is reproducible from its -chaos-seed.
func NewInjector(seed int64) *Injector {
	return &Injector{rng: rand.New(rand.NewSource(seed))}
}

// Arm configures the next fault. nth selects which hook call fires
// (1-based); nth == 0 fires on every call — a persistent fault that
// retries cannot clear. ctx bounds any injected stall: the stall ends
// at min(stall, ctx done), so an abandoned stalled worker always
// unblocks once the caller cancels. Counters reset.
func (in *Injector) Arm(ctx context.Context, f Fault, nth int64, stall time.Duration) {
	if ctx == nil {
		ctx = context.Background()
	}
	in.mu.Lock()
	in.fault = f
	in.nth = nth
	in.stall = stall
	in.ctx = ctx
	in.mu.Unlock()
	in.calls.Store(0)
	in.launches.Store(0)
	in.injected.Store(0)
}

// ArmRandom arms a random fault in [FaultPanic, FaultLaunchFail] at a
// random call ordinal in [1, maxNth], drawn from the seeded stream.
func (in *Injector) ArmRandom(ctx context.Context, maxNth int64, stall time.Duration) Fault {
	if maxNth < 1 {
		maxNth = 1
	}
	in.mu.Lock()
	f := FaultPanic + Fault(in.rng.Intn(int(FaultLaunchFail-FaultPanic+1)))
	nth := 1 + in.rng.Int63n(maxNth)
	in.mu.Unlock()
	in.Arm(ctx, f, nth, stall)
	return f
}

// Disarm stops injecting without detaching installed hooks.
func (in *Injector) Disarm() { in.Arm(context.Background(), FaultNone, 0, 0) }

// Injected reports how many faults fired since the last Arm.
func (in *Injector) Injected() int64 { return in.injected.Load() }

// Install attaches the injector to the process-wide parallel.For chunk
// hook (the CPU-side injection point).
func (in *Injector) Install() { parallel.SetChunkHook(in.chunkFault) }

// Uninstall detaches the chunk hook.
func (in *Injector) Uninstall() { parallel.SetChunkHook(nil) }

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

// snapshot reads the armed configuration consistently.
func (in *Injector) snapshot() (Fault, int64, time.Duration, context.Context) {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fault, in.nth, in.stall, in.ctx
}

// chunkFault is the parallel.For hook: it fires panic/stall faults at
// chunk granularity on the armed ordinal.
func (in *Injector) chunkFault(worker int) {
	f, nth, stall, ctx := in.snapshot()
	if f != FaultPanic && f != FaultStall {
		return
	}
	n := in.calls.Add(1)
	if nth != 0 && n != nth {
		return
	}
	in.injected.Add(1)
	switch f {
	case FaultPanic:
		panic(fmt.Sprintf("resilience: injected panic (worker %d, call %d)", worker, n))
	case FaultStall:
		in.block(ctx, stall)
	}
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

// block stalls for d but never outlives ctx, so a worker stalled past
// an abandoned trial's deadline still terminates once the caller
// cancels its chaos context.
func (in *Injector) block(ctx context.Context, d time.Duration) {
	if d <= 0 {
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}
