// Package parallel is the suite's stand-in for the OpenMP runtime used by
// the paper's CPU kernels. It provides a work-sharing parallel-for with
// static, dynamic, and guided scheduling, atomic float32 accumulation
// ("omp atomic"), and per-worker reduction scratch ("omp reduction").
//
// Threads are goroutines pinned to a fixed worker count (default
// GOMAXPROCS, matching the paper's one-thread-per-physical-core setup).
package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/obs"
)

// Observability counters (internal/obs). Chunk and atomic-add counts
// sit on per-operation hot paths, so their sites gate on obs.Counting;
// CAS retries only tick on a lost race, which is rare enough to count
// unconditionally.
var (
	ctrChunks     = obs.GetCounter("parallel.chunks")
	ctrAtomicAdds = obs.GetCounter("parallel.atomic_adds")
	ctrCASRetries = obs.GetCounter("parallel.cas_retries")
)

// Schedule selects the OpenMP loop-scheduling policy.
type Schedule int

const (
	// Static divides the iteration space into equal contiguous ranges, one
	// per thread (OpenMP schedule(static)).
	Static Schedule = iota
	// Dynamic hands out fixed-size chunks from a shared counter
	// (schedule(dynamic, chunk)); good for skewed fiber lengths.
	Dynamic
	// Guided hands out geometrically shrinking chunks
	// (schedule(guided, chunk)).
	Guided
)

func (s Schedule) String() string {
	switch s {
	case Static:
		return "static"
	case Dynamic:
		return "dynamic"
	case Guided:
		return "guided"
	}
	return "unknown"
}

var numThreads atomic.Int64

func init() { numThreads.Store(int64(runtime.GOMAXPROCS(0))) }

// NumThreads returns the worker count used by For.
func NumThreads() int { return int(numThreads.Load()) }

// SetNumThreads overrides the worker count (OMP_NUM_THREADS). Values < 1
// reset to GOMAXPROCS.
func SetNumThreads(n int) {
	if n < 1 {
		n = runtime.GOMAXPROCS(0)
	}
	numThreads.Store(int64(n))
}

// ErrDeadline is returned by For when Options.Ctx is cancelled or its
// deadline passes before the loop completes. Workers abandon unclaimed
// chunks, so a loop that returns ErrDeadline may have produced partial
// output; callers must not report it as a result.
var ErrDeadline = errors.New("parallel: deadline exceeded")

// WorkerPanic is the value For re-raises on the calling goroutine when a
// worker panicked: without this conversion a panicking worker goroutine
// would crash the whole process uncatchably, whereas a WorkerPanic
// propagates to the loop's caller where resilience.Run can contain it.
type WorkerPanic struct {
	// Worker is the id of the worker (or gpusim block) that panicked.
	Worker int
	// Value is the original recovered panic value.
	Value any
	// Stack is the worker goroutine's stack at the recovery point.
	Stack []byte
}

func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("parallel: worker %d panicked: %v", w.Worker, w.Value)
}

// chunkHook, when installed, is invoked at the start of every claimed
// chunk with the worker id. It exists for deterministic fault injection
// (resilience.Injector): a hook that panics or stalls simulates a
// faulting worker at chunk granularity.
var chunkHook atomic.Pointer[func(worker int)]

// SetChunkHook installs h as the global chunk hook; nil clears it. The
// hook runs inside worker goroutines under panic containment.
func SetChunkHook(h func(worker int)) {
	if h == nil {
		chunkHook.Store(nil)
		return
	}
	chunkHook.Store(&h)
}

func loadChunkHook() func(worker int) {
	if p := chunkHook.Load(); p != nil {
		return *p
	}
	return nil
}

// Options configures one parallel loop.
type Options struct {
	Schedule Schedule
	// Chunk is the chunk size for Dynamic/Guided (minimum chunk for
	// Guided). Zero selects a heuristic.
	Chunk int
	// Threads overrides NumThreads for this loop when > 0.
	Threads int
	// Strategy selects the reduction-update strategy for kernels with a
	// shared output (see Choose); the zero value Auto adapts per call.
	Strategy Strategy
	// Ctx, when non-nil, cancels the loop cooperatively: workers check
	// it at chunk granularity, stop claiming chunks once it is done, and
	// For returns ErrDeadline. Static no-chunk loops are forced onto the
	// chunked path so cancellation keeps sub-range granularity.
	Ctx context.Context
}

// ResolveThreads returns the worker count For will use for a loop of n
// iterations under opt, reading the global NumThreads at most once.
// Callers sizing per-worker state must resolve the count through this
// function and pass it back via opt.Threads — re-reading NumThreads
// races with SetNumThreads and can hand For more workers than the state
// was sized for.
func ResolveThreads(n int, opt Options) int {
	threads := opt.Threads
	if threads <= 0 {
		threads = NumThreads()
	}
	if n > 0 && threads > n {
		threads = n
	}
	if threads < 1 {
		threads = 1
	}
	return threads
}

// loopCtl carries the abort/containment state of one For invocation.
type loopCtl struct {
	done  <-chan struct{}
	hook  func(worker int)
	count bool // obs.Counting() resolved once per loop
	abort atomic.Bool
	mu    sync.Mutex
	wp    *WorkerPanic
}

// chunk ticks the chunk counter when hot-path counting is on; called
// once per claimed chunk on every schedule path.
func (c *loopCtl) chunk() {
	if c.count {
		ctrChunks.Inc()
	}
}

// active reports whether the loop needs per-chunk checks at all.
func (c *loopCtl) active() bool { return c.done != nil || c.hook != nil }

// enter reports whether worker w may start another chunk, running the
// fault-injection hook when one is installed.
func (c *loopCtl) enter(w int) bool {
	if c.abort.Load() {
		return false
	}
	if c.done != nil {
		select {
		case <-c.done:
			c.abort.Store(true)
			return false
		default:
		}
	}
	if c.hook != nil {
		c.hook(w)
	}
	return true
}

// guard is deferred in every worker goroutine: it records the first
// panic (value + stack) and aborts the loop so the other workers stop
// claiming chunks.
func (c *loopCtl) guard(w int) {
	if r := recover(); r != nil {
		c.mu.Lock()
		if c.wp == nil {
			c.wp = &WorkerPanic{Worker: w, Value: r, Stack: debug.Stack()}
		}
		c.mu.Unlock()
		c.abort.Store(true)
	}
}

// finish re-raises a contained worker panic on the caller's goroutine
// (so resilience.Run can recover it) or reports cancellation.
func (c *loopCtl) finish(ctx context.Context) error {
	c.mu.Lock()
	wp := c.wp
	c.mu.Unlock()
	if wp != nil {
		panic(wp)
	}
	if ctx != nil && ctx.Err() != nil {
		return deadlineErr(ctx)
	}
	return nil
}

// deadlineErr reports a loop stopped by its context. ErrDeadline stays
// the errors.Is identity every caller matches on; the context's cause
// is attached so upper layers can tell an explicit cancellation (client
// disconnect, drain) from an expired deadline.
func deadlineErr(ctx context.Context) error {
	if ctx == nil {
		return ErrDeadline
	}
	cause := context.Cause(ctx)
	if cause == nil {
		return ErrDeadline
	}
	return fmt.Errorf("%w (%w)", ErrDeadline, cause)
}

// For executes body over the half-open range [0, n) using the configured
// schedule. body is called with sub-ranges [lo, hi) and the worker id in
// [0, threads); each index is visited exactly once unless the loop is
// aborted. For returns after all iterations complete, or ErrDeadline when
// opt.Ctx is cancelled first (the loop's output may then be partial). A
// panic inside body is contained in its worker, aborts the remaining
// chunks, and is re-raised on the calling goroutine as a *WorkerPanic.
//
// When an obs tracer is enabled the whole loop is recorded as one
// chunk-phase span; when tracing is off the extra cost is a single
// atomic pointer load and zero allocations (pinned by
// TestDisabledTracingZeroAlloc).
func For(n int, opt Options, body func(lo, hi, worker int)) error {
	if n <= 0 {
		return nil
	}
	if t := obs.Current(); t != nil {
		sp := obs.BeginOn(t, "parallel.For", "", obs.PhaseChunk, -1)
		sp.Attr("schedule", opt.Schedule.String())
		err := forGo(n, opt, body)
		sp.End()
		return err
	}
	return forGo(n, opt, body)
}

// forGo is the uninstrumented loop driver behind For.
func forGo(n int, opt Options, body func(lo, hi, worker int)) error {
	threads := ResolveThreads(n, opt)
	ctl := &loopCtl{hook: loadChunkHook(), count: obs.Counting()}
	if opt.Ctx != nil {
		ctl.done = opt.Ctx.Done()
	}
	if threads == 1 {
		return forSerial(n, opt, ctl, body)
	}
	var wg sync.WaitGroup
	wg.Add(threads)
	switch opt.Schedule {
	case Static:
		chunk := opt.Chunk
		if chunk <= 0 && ctl.active() {
			// Cancellation and fault hooks need chunk granularity; the
			// contiguous one-range-per-thread split would only check
			// once per worker.
			chunk = heuristicChunk(n, threads)
		}
		if chunk <= 0 {
			// One contiguous range per thread.
			for w := 0; w < threads; w++ {
				lo := w * n / threads
				hi := (w + 1) * n / threads
				go func(lo, hi, w int) {
					defer wg.Done()
					defer ctl.guard(w)
					if lo < hi && ctl.enter(w) {
						ctl.chunk()
						body(lo, hi, w)
					}
				}(lo, hi, w)
			}
		} else {
			// Round-robin chunks of fixed size, OpenMP schedule(static, c).
			for w := 0; w < threads; w++ {
				go func(w int) {
					defer wg.Done()
					defer ctl.guard(w)
					for lo := w * chunk; lo < n; lo += threads * chunk {
						if !ctl.enter(w) {
							return
						}
						hi := lo + chunk
						if hi > n {
							hi = n
						}
						ctl.chunk()
						body(lo, hi, w)
					}
				}(w)
			}
		}
	case Dynamic:
		chunk := opt.Chunk
		if chunk <= 0 {
			chunk = heuristicChunk(n, threads)
		}
		var next atomic.Int64
		for w := 0; w < threads; w++ {
			go func(w int) {
				defer wg.Done()
				defer ctl.guard(w)
				for {
					if !ctl.enter(w) {
						return
					}
					lo := int(next.Add(int64(chunk))) - chunk
					if lo >= n {
						return
					}
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					ctl.chunk()
					body(lo, hi, w)
				}
			}(w)
		}
	case Guided:
		minChunk := opt.Chunk
		if minChunk <= 0 {
			minChunk = 1
		}
		var next atomic.Int64
		for w := 0; w < threads; w++ {
			go func(w int) {
				defer wg.Done()
				defer ctl.guard(w)
				for {
					if !ctl.enter(w) {
						return
					}
					lo := int(next.Load())
					if lo >= n {
						return
					}
					remaining := n - lo
					chunk := remaining / (2 * threads)
					if chunk < minChunk {
						chunk = minChunk
					}
					// Claim [lo, lo+chunk) if lo is still current. On a
					// lost race, yield before retrying: under high
					// contention (many workers, small chunks) spinning on
					// the CAS starves the winner of the core it needs to
					// publish the next value.
					if !next.CompareAndSwap(int64(lo), int64(lo+chunk)) {
						runtime.Gosched()
						continue
					}
					hi := lo + chunk
					if hi > n {
						hi = n
					}
					ctl.chunk()
					body(lo, hi, w)
				}
			}(w)
		}
	default:
		panic("parallel: unknown schedule")
	}
	wg.Wait()
	return ctl.finish(opt.Ctx)
}

// forSerial runs the loop on the calling goroutine. With no context or
// hook it is the zero-overhead single call the T=1 path always was; with
// either it chunks the range so cancellation and fault injection keep
// chunk granularity even at one thread. Panics propagate directly (same
// goroutine), which resilience.Run contains just the same.
func forSerial(n int, opt Options, ctl *loopCtl, body func(lo, hi, worker int)) error {
	if !ctl.active() {
		ctl.chunk()
		body(0, n, 0)
		return nil
	}
	chunk := opt.Chunk
	if chunk <= 0 {
		chunk = heuristicChunk(n, 1)
	}
	for lo := 0; lo < n; lo += chunk {
		if !ctl.enter(0) {
			return deadlineErr(opt.Ctx)
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		ctl.chunk()
		body(lo, hi, 0)
	}
	return nil
}

// ForEach is For with a per-index body, for loops whose iterations are too
// coarse to benefit from manual range handling.
func ForEach(n int, opt Options, body func(i, worker int)) error {
	return For(n, opt, func(lo, hi, w int) {
		for i := lo; i < hi; i++ {
			body(i, w)
		}
	})
}

func heuristicChunk(n, threads int) int {
	c := n / (threads * 16)
	if c < 1 {
		c = 1
	}
	if c > 4096 {
		c = 4096
	}
	return c
}

// AtomicAddFloat32 atomically adds delta to *addr using a compare-and-swap
// loop on the value's bit pattern — the Go equivalent of "omp atomic" /
// CUDA atomicAdd on float. Lost CAS races tick parallel.cas_retries and,
// when hot-path counting is on, completed adds tick parallel.atomic_adds.
func AtomicAddFloat32(addr *float32, delta float32) {
	p := (*uint32)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint32(p)
		cur := math.Float32frombits(old)
		nxt := math.Float32bits(cur + delta)
		if atomic.CompareAndSwapUint32(p, old, nxt) {
			if obs.Counting() {
				ctrAtomicAdds.Inc()
			}
			return
		}
		ctrCASRetries.Inc()
	}
}

// AtomicAddFloat64 atomically adds delta to *addr.
func AtomicAddFloat64(addr *float64, delta float64) {
	p := (*uint64)(unsafe.Pointer(addr))
	for {
		old := atomic.LoadUint64(p)
		cur := math.Float64frombits(old)
		nxt := math.Float64bits(cur + delta)
		if atomic.CompareAndSwapUint64(p, old, nxt) {
			if obs.Counting() {
				ctrAtomicAdds.Inc()
			}
			return
		}
		ctrCASRetries.Inc()
	}
}
