// Package gpusim is the suite's CUDA-substitute execution substrate. The
// paper's GPU kernels are written against a grid/thread-block model; this
// package reproduces that model functionally so the identical kernel
// bodies (one-dimensional grids of one- or two-dimensional thread blocks,
// per-thread index arithmetic, atomicAdd) execute on the host and can be
// validated against the serial CPU reference implementations.
//
// Thread blocks are scheduled across a worker pool, mirroring how a GPU
// schedules blocks across streaming multiprocessors. Threads within a
// block run sequentially, which preserves the semantics of the paper's
// kernels (they are data-parallel and never use __syncthreads or shared
// memory — §3.4: "advanced techniques ... are not adopted").
//
// Timing on this simulator is NOT meaningful GPU timing; the analytic
// model in internal/perfmodel provides the paper-comparable GFLOPS.
package gpusim

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/parallel"
)

// Device-wide observability counters. Launches and blocks are
// per-kernel-call granularity (rare relative to thread work), so they
// count unconditionally whenever counting is enabled.
var (
	ctrLaunches = obs.GetCounter("gpusim.launches")
	ctrBlocks   = obs.GetCounter("gpusim.blocks")
)

// Dim3 mirrors CUDA's dim3 launch geometry.
type Dim3 struct{ X, Y, Z int }

// Count returns the number of points in the 3-D range.
func (d Dim3) Count() int {
	x, y, z := d.X, d.Y, d.Z
	if x == 0 {
		x = 1
	}
	if y == 0 {
		y = 1
	}
	if z == 0 {
		z = 1
	}
	return x * y * z
}

// Dim1 builds a one-dimensional Dim3.
func Dim1(x int) Dim3 { return Dim3{X: x, Y: 1, Z: 1} }

// Dim2 builds a two-dimensional Dim3.
func Dim2(x, y int) Dim3 { return Dim3{X: x, Y: y, Z: 1} }

// Ctx carries the per-thread identifiers a CUDA kernel reads.
type Ctx struct {
	BlockIdx  Dim3
	ThreadIdx Dim3
	BlockDim  Dim3
	GridDim   Dim3
}

// GlobalX returns blockIdx.x*blockDim.x + threadIdx.x, the standard
// 1-D global thread index.
func (c Ctx) GlobalX() int { return c.BlockIdx.X*c.BlockDim.X + c.ThreadIdx.X }

// Kernel is the body executed once per thread.
type Kernel func(ctx Ctx)

// LaunchError reports an invalid launch geometry — the simulator's
// cudaErrorInvalidConfiguration.
type LaunchError struct {
	Grid, Block Dim3
	Reason      string
}

func (e *LaunchError) Error() string {
	return fmt.Sprintf("gpusim: %s (grid=%+v block=%+v)", e.Reason, e.Grid, e.Block)
}

// Device is a simulated CUDA device. SMs bounds block-level concurrency
// during simulation (capped by host cores).
type Device struct {
	Name               string
	SMs                int
	WarpSize           int
	MaxThreadsPerBlock int

	blocksLaunched  atomic.Int64
	threadsLaunched atomic.Int64
	kernelsLaunched atomic.Int64

	// ctx, when attached, bounds every launch: block workers check it
	// between blocks and an expired context aborts the launch with
	// parallel.ErrDeadline (the device-side analogue of a stream
	// timeout).
	ctx atomic.Pointer[context.Context]
	// launchHook/blockHook are fault-injection points: launchHook can
	// fail a launch before any block runs, blockHook runs before each
	// block (under panic containment).
	launchHook atomic.Pointer[func() error]
	blockHook  atomic.Pointer[func(block int)]
}

// SetContext attaches ctx to the device; every subsequent TryLaunch
// checks it at block granularity and aborts with parallel.ErrDeadline
// once it is done. SetContext(nil) detaches.
func (d *Device) SetContext(ctx context.Context) {
	if ctx == nil {
		d.ctx.Store(nil)
		return
	}
	d.ctx.Store(&ctx)
}

// SetLaunchHook installs h, consulted at the start of every launch; a
// non-nil return fails the launch before any block runs (fault
// injection). nil clears.
func (d *Device) SetLaunchHook(h func() error) {
	if h == nil {
		d.launchHook.Store(nil)
		return
	}
	d.launchHook.Store(&h)
}

// SetBlockHook installs h, invoked before each scheduled block with the
// linear block id, under panic containment (fault injection). nil clears.
func (d *Device) SetBlockHook(h func(block int)) {
	if h == nil {
		d.blockHook.Store(nil)
		return
	}
	d.blockHook.Store(&h)
}

// NewDevice returns a device with the given SM count (0 selects the host
// core count).
func NewDevice(name string, sms int) *Device {
	if sms <= 0 {
		sms = runtime.GOMAXPROCS(0)
	}
	return &Device{Name: name, SMs: sms, WarpSize: 32, MaxThreadsPerBlock: 1024}
}

// DefaultBlockThreads is the paper's 1-D thread-block size (M non-zeros are
// assigned to M/256 blocks of 256 threads, §3.2.2).
const DefaultBlockThreads = 256

// LaunchStats reports what a launch executed.
type LaunchStats struct {
	Grid, Block     Dim3
	Blocks, Threads int
}

// Launch executes the kernel over grid × block geometry and blocks until
// every thread has run. It panics on any launch error, mirroring an
// unchecked CUDA launch; error-aware callers use TryLaunch.
func (d *Device) Launch(grid, block Dim3, kernel Kernel) LaunchStats {
	st, err := d.TryLaunch(grid, block, kernel)
	if err != nil {
		panic(err)
	}
	return st
}

// TryLaunch is Launch with errors instead of panics: a typed
// *LaunchError for invalid geometry, the launch hook's error for an
// injected launch failure, a *parallel.WorkerPanic when a block worker
// panicked (the launch fails, the process survives), and
// parallel.ErrDeadline when the device context expired mid-grid. Device
// counters only advance on a fully completed launch.
func (d *Device) TryLaunch(grid, block Dim3, kernel Kernel) (LaunchStats, error) {
	sp := obs.Begin("gpusim.launch", d.Name, obs.PhaseLaunch, -1)
	defer sp.End()
	st := LaunchStats{Grid: grid, Block: block}
	// A zero or negative X axis is an invalid launch (CUDA's
	// cudaErrorInvalidConfiguration); zero Y/Z keep their documented
	// treated-as-1 convenience for 1-D and 2-D geometries.
	if grid.X <= 0 || grid.Y < 0 || grid.Z < 0 || block.X <= 0 || block.Y < 0 || block.Z < 0 {
		return st, &LaunchError{Grid: grid, Block: block, Reason: "invalid launch geometry"}
	}
	if block.Count() > d.MaxThreadsPerBlock {
		return st, &LaunchError{Grid: grid, Block: block,
			Reason: fmt.Sprintf("block of %d threads exceeds device limit %d", block.Count(), d.MaxThreadsPerBlock)}
	}
	if p := d.launchHook.Load(); p != nil {
		if err := (*p)(); err != nil {
			return st, fmt.Errorf("gpusim: launch failed: %w", err)
		}
	}
	var done <-chan struct{}
	var ctx context.Context
	if p := d.ctx.Load(); p != nil {
		ctx = *p
		done = ctx.Done()
	}
	var blockHook func(int)
	if p := d.blockHook.Load(); p != nil {
		blockHook = *p
	}
	// Per-block spans are opt-in (obs.WithBlockSpans): a large grid emits
	// one span per block, which is exactly what about:tracing block-level
	// occupancy views want and far too much for everything else.
	var blockTracer *obs.Tracer
	if t := obs.Current(); t != nil && t.BlockSpans() {
		blockTracer = t
	}

	nBlocks := grid.Count()
	workers := d.SMs
	if hc := runtime.GOMAXPROCS(0); workers > hc {
		workers = hc
	}
	if workers > nBlocks {
		workers = nBlocks
	}

	var (
		wg    sync.WaitGroup
		next  atomic.Int64
		abort atomic.Bool
		mu    sync.Mutex
		wp    *parallel.WorkerPanic
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				b := int(next.Add(1)) - 1
				if b >= nBlocks {
					return
				}
				if abort.Load() {
					return
				}
				if done != nil {
					select {
					case <-done:
						abort.Store(true)
						return
					default:
					}
				}
				// Contain a panicking block (kernel bug, injected fault)
				// per block so the first failure is recorded with its
				// block id and the launch fails instead of the process.
				func() {
					defer func() {
						if r := recover(); r != nil {
							mu.Lock()
							if wp == nil {
								if inner, ok := r.(*parallel.WorkerPanic); ok {
									wp = inner
								} else {
									wp = &parallel.WorkerPanic{Worker: b, Value: r, Stack: debug.Stack()}
								}
							}
							mu.Unlock()
							abort.Store(true)
						}
					}()
					bsp := obs.BeginOn(blockTracer, "gpusim.block", d.Name, obs.PhaseChunk, b)
					defer bsp.End()
					if blockHook != nil {
						blockHook(b)
					}
					d.runBlock(grid, block, b, kernel)
				}()
			}
		}()
	}
	wg.Wait()

	mu.Lock()
	failed := wp
	mu.Unlock()
	if failed != nil {
		return st, failed
	}
	if ctx != nil && ctx.Err() != nil {
		return st, fmt.Errorf("gpusim: launch aborted mid-grid: %w", parallel.ErrDeadline)
	}
	st.Blocks = nBlocks
	st.Threads = nBlocks * block.Count()
	d.blocksLaunched.Add(int64(st.Blocks))
	d.threadsLaunched.Add(int64(st.Threads))
	d.kernelsLaunched.Add(1)
	if obs.Counting() {
		ctrLaunches.Inc()
		ctrBlocks.Add(int64(st.Blocks))
	}
	return st, nil
}

// runBlock executes all threads of linear block b sequentially.
func (d *Device) runBlock(grid, block Dim3, b int, kernel Kernel) {
	gx := max1(grid.X)
	gy := max1(grid.Y)
	bi := Dim3{X: b % gx, Y: (b / gx) % gy, Z: b / (gx * gy)}
	ctx := Ctx{BlockIdx: bi, BlockDim: block, GridDim: grid}
	for tz := 0; tz < max1(block.Z); tz++ {
		for ty := 0; ty < max1(block.Y); ty++ {
			for tx := 0; tx < max1(block.X); tx++ {
				ctx.ThreadIdx = Dim3{X: tx, Y: ty, Z: tz}
				kernel(ctx)
			}
		}
	}
}

func max1(x int) int {
	if x < 1 {
		return 1
	}
	return x
}

// AtomicAdd is the device-side atomicAdd on single-precision floats.
func AtomicAdd(addr *float32, v float32) { parallel.AtomicAddFloat32(addr, v) }

// Grid1DFor returns the 1-D grid that covers n work items with the given
// threads per block: ceil(n/threads) blocks.
func Grid1DFor(n, threadsPerBlock int) Dim3 {
	if threadsPerBlock <= 0 {
		threadsPerBlock = DefaultBlockThreads
	}
	blocks := (n + threadsPerBlock - 1) / threadsPerBlock
	if blocks < 1 {
		blocks = 1
	}
	return Dim1(blocks)
}
