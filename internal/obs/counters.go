package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is one named atomic event counter. Counters are cheap enough
// to bump unconditionally at coarse granularity (per kernel launch,
// per pool acquisition, per resilience event); per-operation hot paths
// (atomic float adds, chunk claims) additionally gate on Counting() so
// a process with counting off pays only an atomic bool load.
type Counter struct {
	name string
	v    atomic.Int64
}

// Name returns the counter's registry key.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value reads the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

var counterReg struct {
	mu sync.RWMutex
	m  map[string]*Counter
}

// GetCounter returns the counter registered under name, creating it on
// first use. Instrumented packages call this once at init and keep the
// pointer, so the hot path never touches the registry lock.
func GetCounter(name string) *Counter {
	counterReg.mu.RLock()
	c := counterReg.m[name]
	counterReg.mu.RUnlock()
	if c != nil {
		return c
	}
	counterReg.mu.Lock()
	defer counterReg.mu.Unlock()
	if counterReg.m == nil {
		counterReg.m = make(map[string]*Counter)
	}
	if c = counterReg.m[name]; c == nil {
		c = &Counter{name: name}
		counterReg.m[name] = c
	}
	return c
}

// CounterSnapshot captures every registered counter's current value.
func CounterSnapshot() map[string]int64 {
	counterReg.mu.RLock()
	defer counterReg.mu.RUnlock()
	out := make(map[string]int64, len(counterReg.m))
	for k, c := range counterReg.m {
		out[k] = c.Value()
	}
	return out
}

// DiffSnapshot returns after-before per counter, keeping only non-zero
// deltas (counters are monotonic, so a zero delta means "nothing
// happened here" and would just be table noise).
func DiffSnapshot(before, after map[string]int64) map[string]int64 {
	out := make(map[string]int64)
	for k, v := range after {
		if d := v - before[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// counting gates the per-operation hot-path counters.
var counting atomic.Bool

// EnableCounters turns the hot-path counters on or off. Coarse
// counters (launches, pool hits, resilience events) count regardless.
func EnableCounters(on bool) { counting.Store(on) }

// Counting reports whether hot-path counting is enabled.
func Counting() bool { return counting.Load() }
