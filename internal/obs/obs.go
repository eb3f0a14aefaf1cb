// Package obs is the suite's zero-dependency observability layer:
// execution tracing, runtime counters and trace exporters. The paper's evaluation (§5) explains *why* a
// kernel is slow by decomposing execution into phases — format
// conversion, sorting, kernel launch, per-thread chunks, reduction —
// and attributing time to each; this package gives every harness in
// the suite that decomposition for free.
//
// The design constraint is that observability must cost nothing when
// off: benchmark numbers are the product, and a tracer that perturbs
// them is worse than none. Tracing is therefore process-global and
// pointer-gated — when no tracer is enabled, Begin is a single atomic
// pointer load returning a zero Active whose End is a no-op, with zero
// allocations on the instrumented hot paths (enforced by a
// testing.AllocsPerRun test in internal/parallel). When a tracer is
// enabled, spans are recorded into per-worker shards so concurrent
// workers almost never contend on a lock.
//
// Counters are always-on atomic.Int64 cells in a global registry;
// instrumentation sites on per-operation hot paths (atomic adds,
// chunk claims) additionally gate on Counting() so a disabled process
// pays only an atomic bool load. Harnesses attribute counter deltas to
// a kernel variant by snapshotting around each measurement
// (CounterSnapshot / DiffSnapshot).
//
// Exporters render recorded spans as Chrome trace_event JSON (loads
// directly in about:tracing or Perfetto), as a JSONL event log, or as
// an aggregated text summary.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Phase classifies a span into the paper's execution decomposition.
type Phase uint8

const (
	// PhasePrepare covers a variant's whole untimed preprocessing stage.
	PhasePrepare Phase = iota
	// PhaseConvert covers a format conversion (COO→HiCOO/CSF/fCOO).
	PhaseConvert
	// PhaseSort covers index sorting (fiber sort, Morton order, CSF).
	PhaseSort
	// PhaseLaunch covers one simulated-GPU kernel launch.
	PhaseLaunch
	// PhaseChunk covers work-shared execution: a parallel.For loop or a
	// single simulated thread block.
	PhaseChunk
	// PhaseVerify covers a verification pass against the reference.
	PhaseVerify
	// PhaseFallback marks resilience events: retries, degradations,
	// breaker trips.
	PhaseFallback
	// PhaseTrial covers one timed measurement trial of the harness.
	PhaseTrial

	numPhases
)

var phaseNames = [numPhases]string{
	"prepare", "convert", "sort", "launch", "chunk",
	"verify", "fallback", "trial",
}

func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// Attr is one key/value annotation on a span.
type Attr struct {
	Key string
	Val string
}

// Span is one recorded interval (or instant, when Dur == 0 and the
// span was emitted by Emit). Start is the offset from the tracer's
// epoch, so spans from all workers share one monotonic clock.
type Span struct {
	Name    string
	Variant string
	Phase   Phase
	// Worker is the worker/block id the span ran on, or -1 for
	// harness-level spans.
	Worker int32
	// Instant marks an Emit event (a point in time, not an interval).
	Instant bool
	Start   time.Duration
	Dur     time.Duration
	Attrs   []Attr
}

// shardCount must be a power of two; 64 comfortably exceeds the worker
// counts the suite runs with, so concurrent workers land on distinct
// shards.
const shardCount = 64

type shard struct {
	mu    sync.Mutex
	spans []Span
	// pad spaces shards a cache line apart so two workers appending to
	// neighbouring shards do not false-share the mutexes.
	_ [40]byte
}

// Tracer records spans into per-worker shards. The zero value is not
// usable; construct with New.
type Tracer struct {
	// epoch anchors every span's Start offset; time.Since(epoch) reads
	// the monotonic clock.
	epoch time.Time
	// wall is the wall-clock time of the epoch. Nothing reads it; it
	// stays because dropping it shrinks New and moves internal/core in
	// the benchmark binary by 32 bytes mod 64, which shifts the kernel
	// ratios (EXPERIMENTS.md "Element-wise kernels in AVX2").
	wall time.Time
	// blockSpans opts in to one span per simulated GPU block — precise
	// but voluminous; off by default.
	blockSpans bool
	shards     [shardCount]shard
}

// Option configures a Tracer at construction.
type Option func(*Tracer)

// WithBlockSpans records one span per simulated-GPU thread block
// (default: only one span per launch). Block spans make a single
// launch's imbalance visible in the trace viewer but multiply the
// event count by the grid size.
func WithBlockSpans() Option {
	return func(t *Tracer) { t.blockSpans = true }
}

// New returns an empty tracer whose epoch is now.
func New(opts ...Option) *Tracer {
	now := time.Now()
	t := &Tracer{epoch: now, wall: now}
	for _, o := range opts {
		o(t)
	}
	return t
}

// BlockSpans reports whether per-block GPU spans were requested.
func (t *Tracer) BlockSpans() bool { return t.blockSpans }

func (t *Tracer) record(s Span) {
	sh := &t.shards[uint32(s.Worker+1)&(shardCount-1)]
	sh.mu.Lock()
	sh.spans = append(sh.spans, s)
	sh.mu.Unlock()
}

// Spans snapshots every recorded span, sorted by start offset (ties by
// longer-first so enclosing spans precede their children).
func (t *Tracer) Spans() []Span {
	var out []Span
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		out = append(out, sh.spans...)
		sh.mu.Unlock()
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

// Len reports how many spans have been recorded so far.
func (t *Tracer) Len() int {
	n := 0
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		n += len(sh.spans)
		sh.mu.Unlock()
	}
	return n
}

// current is the process-global tracer; nil means tracing is disabled
// and every instrumentation site reduces to one atomic load.
var current atomic.Pointer[Tracer]

// Enable installs t as the process-global tracer.
func Enable(t *Tracer) { current.Store(t) }

// Disable detaches the global tracer and returns it (nil when tracing
// was already off), so callers can export what was recorded.
func Disable() *Tracer { return current.Swap(nil) }

// Current returns the enabled tracer, or nil when tracing is off.
func Current() *Tracer { return current.Load() }

// Active is an in-flight span handle. The zero value (returned by
// Begin when tracing is off) is inert: every method is a cheap no-op.
// Active is a plain value so the disabled path allocates nothing.
type Active struct {
	t *Tracer
	s Span
}

// Begin starts a span on the global tracer; when tracing is disabled
// it returns the inert zero Active.
func Begin(name, variant string, phase Phase, worker int) Active {
	t := current.Load()
	if t == nil {
		return Active{}
	}
	return BeginOn(t, name, variant, phase, worker)
}

// BeginOn starts a span on an explicit tracer (for call sites that
// already loaded Current once and branch on it). A nil tracer yields
// the inert zero Active.
func BeginOn(t *Tracer, name, variant string, phase Phase, worker int) Active {
	if t == nil {
		return Active{}
	}
	return Active{t: t, s: Span{
		Name: name, Variant: variant, Phase: phase,
		Worker: int32(worker), Start: time.Since(t.epoch),
	}}
}

// Attr annotates the span; dropped when tracing is off.
func (a *Active) Attr(key, val string) {
	if a.t == nil {
		return
	}
	a.s.Attrs = append(a.s.Attrs, Attr{Key: key, Val: val})
}

// End completes the span and records it. Calling End on the zero
// Active (tracing disabled) is a no-op.
func (a *Active) End() {
	if a.t == nil {
		return
	}
	a.s.Dur = time.Since(a.t.epoch) - a.s.Start
	a.t.record(a.s)
	a.t = nil
}

// Emit records an instant event (a point, not an interval) on the
// global tracer; a no-op when tracing is off.
func Emit(name, variant string, phase Phase, worker int, attrs ...Attr) {
	t := current.Load()
	if t == nil {
		return
	}
	t.record(Span{
		Name: name, Variant: variant, Phase: phase, Worker: int32(worker),
		Instant: true, Start: time.Since(t.epoch), Attrs: attrs,
	})
}
