// Package govern is the daemon's resource governor: memory-budget
// admission control with cost-aware shedding, and the drain state
// machine a graceful shutdown sequences through.
//
// The suite's workloads are memory-bound by design — the paper
// characterizes every kernel by bytes moved, not flops — so the
// interesting overload failure mode is resource exhaustion, not CPU
// saturation. A request-count semaphore cannot see that: eight tiny Ts
// requests and eight giant Mttkrp materializations count the same. The
// governor instead charges each request's estimated working-set bytes
// (kernelreg.EstimateFootprint over the roofline byte models, refined
// by measured Workbench sizes) against one daemon-wide budget:
//
//   - a request whose footprint fits the remaining headroom is admitted
//     immediately and holds a Lease until it completes;
//   - a request that would overflow the budget waits up to AdmitWait
//     for leases to release, then is shed (ErrOverloaded) — cheap
//     requests keep being admitted around it the whole time;
//   - a request larger than the entire budget is rejected outright
//     (ErrOverBudget): no amount of waiting can ever fit it.
//
// Draining is a one-way switch: BeginDrain stops all admission
// (ErrDraining), wakes every waiter, and closes DrainChan so batched
// joiners can detach; AwaitIdle then blocks until every outstanding
// lease is released, bounded by the caller's context.
//
// Admission events flow into the shared obs counter registry
// (govern.admitted, govern.shed, govern.bytes_inflight) so /metrics
// exports them next to every other subsystem's counters.
package govern

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

var (
	ctrAdmitted = obs.GetCounter("govern.admitted")
	ctrShed     = obs.GetCounter("govern.shed")
	// ctrBytesInflight tracks the admitted working-set bytes as a
	// counter with signed adds (charge on admit, refund on release), so
	// the registry snapshot doubles as a gauge of current pressure.
	ctrBytesInflight = obs.GetCounter("govern.bytes_inflight")
)

// Admission errors. ErrOverloaded and ErrDraining are retryable
// (503-class); ErrOverBudget is not — the request can never fit.
var (
	// ErrOverBudget marks a request whose estimated footprint exceeds
	// the entire budget; it would be shed forever, so it fails fast.
	ErrOverBudget = errors.New("govern: request footprint exceeds the memory budget")
	// ErrOverloaded marks a request shed because no headroom appeared
	// within the admission wait.
	ErrOverloaded = errors.New("govern: no memory headroom within the admission wait")
	// ErrDraining marks a request rejected because the governor is
	// draining for shutdown.
	ErrDraining = errors.New("govern: draining, not admitting new work")
)

// Config carries the governor's tunables; zero values select defaults.
type Config struct {
	// BudgetBytes is the admission budget (0 → DefaultBudget()).
	BudgetBytes int64
	// AdmitWait bounds how long an over-headroom request waits for
	// leases to release before being shed (0 → 100ms).
	AdmitWait time.Duration
	// DrainGrace is the documented drain deadline; the governor itself
	// only reports it (callers bound AwaitIdle with their own context),
	// but keeping it here gives shedding responses a Retry-After source
	// (0 → 10s).
	DrainGrace time.Duration
}

// Governor is the admission state. All methods are safe for concurrent
// use.
type Governor struct {
	budget     int64
	admitWait  time.Duration
	drainGrace time.Duration

	mu       sync.Mutex
	cond     *sync.Cond
	inflight int64 // admitted bytes
	leases   int   // outstanding leases
	draining bool
	drainCh  chan struct{}
}

// New builds a Governor, normalizing zero Config fields.
func New(cfg Config) *Governor {
	if cfg.BudgetBytes <= 0 {
		cfg.BudgetBytes = DefaultBudget()
	}
	if cfg.AdmitWait <= 0 {
		cfg.AdmitWait = 100 * time.Millisecond
	}
	if cfg.DrainGrace <= 0 {
		cfg.DrainGrace = 10 * time.Second
	}
	g := &Governor{
		budget:     cfg.BudgetBytes,
		admitWait:  cfg.AdmitWait,
		drainGrace: cfg.DrainGrace,
		drainCh:    make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Budget returns the admission budget in bytes.
func (g *Governor) Budget() int64 { return g.budget }

// DrainGrace returns the configured drain deadline.
func (g *Governor) DrainGrace() time.Duration { return g.drainGrace }

// BytesInflight returns the currently admitted working-set bytes.
func (g *Governor) BytesInflight() int64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.inflight
}

// Lease is one admitted request's charge against the budget. Release
// must be called exactly when the request's working set is gone
// (request completed, failed, or was cancelled); it is idempotent.
type Lease struct {
	g     *Governor
	bytes int64
	once  sync.Once
}

// Release refunds the lease and wakes admission waiters.
func (l *Lease) Release() {
	l.once.Do(func() {
		g := l.g
		g.mu.Lock()
		g.inflight -= l.bytes
		g.leases--
		g.mu.Unlock()
		ctrBytesInflight.Add(-l.bytes)
		g.cond.Broadcast()
	})
}

// Admit charges cost bytes against the budget, waiting up to AdmitWait
// (bounded by ctx) for headroom. The errors:
//
//   - ErrOverBudget: cost exceeds the whole budget, immediately;
//   - ErrDraining: the governor is draining;
//   - ErrOverloaded: no headroom appeared within AdmitWait;
//   - ctx.Err(): the caller went away while waiting (not counted as a
//     shed — nobody is left to retry).
//
// Cheap requests admit around a waiting huge one: headroom is checked
// per-waiter against its own cost, not FIFO.
func (g *Governor) Admit(ctx context.Context, cost int64) (*Lease, error) {
	if cost < 0 {
		cost = 0
	}
	if cost > g.budget {
		g.shed("over-budget", cost)
		return nil, fmt.Errorf("%w: need %d bytes, budget is %d", ErrOverBudget, cost, g.budget)
	}
	deadline := time.Now().Add(g.admitWait)
	// sync.Cond cannot select on channels; wake the wait loop when the
	// admission deadline or the caller's context fires so it re-checks.
	timer := time.AfterFunc(g.admitWait, g.cond.Broadcast)
	defer timer.Stop()
	stop := context.AfterFunc(ctx, g.cond.Broadcast)
	defer stop()

	g.mu.Lock()
	for {
		if g.draining {
			g.mu.Unlock()
			g.shed("draining", cost)
			return nil, ErrDraining
		}
		if err := ctx.Err(); err != nil {
			g.mu.Unlock()
			return nil, err
		}
		if g.inflight+cost <= g.budget {
			g.inflight += cost
			g.leases++
			g.mu.Unlock()
			ctrAdmitted.Inc()
			ctrBytesInflight.Add(cost)
			return &Lease{g: g, bytes: cost}, nil
		}
		if !time.Now().Before(deadline) {
			held := g.inflight
			g.mu.Unlock()
			g.shed("overloaded", cost)
			return nil, fmt.Errorf("%w: need %d bytes, %d of %d in flight", ErrOverloaded, cost, held, g.budget)
		}
		g.cond.Wait()
	}
}

// shed accounts one rejected admission with a trace instant naming why.
func (g *Governor) shed(why string, cost int64) {
	ctrShed.Inc()
	obs.Emit("govern.shed", why, obs.PhaseTrial, -1,
		obs.Attr{Key: "cost_bytes", Val: strconv.FormatInt(cost, 10)})
}

// BeginDrain flips the governor into draining: every future and
// currently waiting Admit fails with ErrDraining, and DrainChan closes
// so batched joiners can detach. Idempotent.
func (g *Governor) BeginDrain() {
	g.mu.Lock()
	if !g.draining {
		g.draining = true
		close(g.drainCh)
	}
	g.mu.Unlock()
	g.cond.Broadcast()
}

// Draining reports whether BeginDrain has been called.
func (g *Governor) Draining() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.draining
}

// DrainChan returns a channel closed when draining begins; selectors
// blocked on long flights use it to detach promptly.
func (g *Governor) DrainChan() <-chan struct{} { return g.drainCh }

// AwaitIdle blocks until every outstanding lease is released or ctx
// expires, returning ctx's error (annotated with what is still held) in
// the latter case. Callers normally BeginDrain first so the lease count
// can only fall.
func (g *Governor) AwaitIdle(ctx context.Context) error {
	stop := context.AfterFunc(ctx, g.cond.Broadcast)
	defer stop()
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.leases > 0 {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("govern: drain incomplete (%d leases, %d bytes still held): %w",
				g.leases, g.inflight, err)
		}
		g.cond.Wait()
	}
	return nil
}

// DefaultBudget picks an admission budget from the environment: half
// the Go runtime's memory limit when one is set (GOMEMLIMIT /
// debug.SetMemoryLimit), else half the machine's physical RAM from
// /proc/meminfo, else a conservative 4 GiB. Half, because the budget
// covers request working sets only — the LRU caches, runtime, and
// fragmentation live in the other half.
func DefaultBudget() int64 {
	// SetMemoryLimit(-1) reads the current limit without changing it;
	// MaxInt64 means "no limit set".
	if lim := debug.SetMemoryLimit(-1); lim > 0 && lim < math.MaxInt64 {
		return lim / 2
	}
	if total := readMemTotal("/proc/meminfo"); total > 0 {
		return total / 2
	}
	return 4 << 30
}

// readMemTotal parses the MemTotal line of a /proc/meminfo-format file,
// returning bytes (the file reports kB) or 0 when unavailable.
func readMemTotal(path string) int64 {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "MemTotal:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb << 10
	}
	return 0
}

// ParseBytes parses a human byte quantity for the -mem-budget flag:
// a number with an optional suffix. KiB/MiB/GiB/TiB (and the bare
// K/M/G/T shorthand) are binary; KB/MB/GB/TB are decimal; B or no
// suffix is bytes. Fractional values ("1.5GiB") are allowed.
func ParseBytes(s string) (int64, error) {
	in := strings.TrimSpace(s)
	lower := strings.ToLower(in)
	mult := float64(1)
	num := lower
	for _, u := range []struct {
		suffix string
		mult   float64
	}{
		{"kib", 1 << 10}, {"mib", 1 << 20}, {"gib", 1 << 30}, {"tib", 1 << 40},
		{"kb", 1e3}, {"mb", 1e6}, {"gb", 1e9}, {"tb", 1e12},
		{"k", 1 << 10}, {"m", 1 << 20}, {"g", 1 << 30}, {"t", 1 << 40},
		{"b", 1},
	} {
		if strings.HasSuffix(lower, u.suffix) {
			mult = u.mult
			num = strings.TrimSpace(strings.TrimSuffix(lower, u.suffix))
			break
		}
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("govern: cannot parse byte quantity %q", s)
	}
	if v < 0 || v*mult > math.MaxInt64 {
		return 0, fmt.Errorf("govern: byte quantity %q out of range", s)
	}
	return int64(v * mult), nil
}
