package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"repro/internal/kernelreg"
	"repro/internal/obs"
)

// batchFloor is the shortest visit to a cell: a cell faster than this is
// called k times back to back (k calibrated once in set-up, then frozen),
// each call timed on its own, so that one visit is at least this long. It is a variable only so
// that the unit test can take a whole workload through in a second.
var batchFloor = 1 * time.Millisecond

// minRounds is how many rounds a run does even when --seconds is
// shorter than that takes: fewer calls per cell are not worth a metric.
const minRounds = 5

// cell is one timed call into one layer. A workload is a fixed, ordered
// list of cells; a round visits every cell once, so every metric samples
// the whole run instead of one window of it.
type cell struct {
	name string // "layer.cell": the span name and the key metrics select by
	// group names the metric this cell's time belongs to: the denominator
	// of a ratio metric ("ew_x", "ooc.stream_x") or a summed time
	// ("gpusim.device_s"); "" for none.
	group string
	// pairs are the frozen references timed in the same round that make
	// up this cell's share of the ratio's numerator.
	pairs []pairing
	// run makes one call and returns how many of its ops operations
	// failed, with the first error for the log.
	run func() (failed int, err error)
	ops int // operations one call attempts (requests for the daemon cell)
	// before runs untimed ahead of each sample (input a call consumes,
	// such as the unsorted copy a sort cell sorts). Cells with a before
	// hook are never batched.
	before  func()
	noBatch bool // big cells: always k = 1, still warmed in set-up
	k       int  // calls per timed sample

	// Kernel cells: what ran, for GFLOPS, strategy counts and the
	// correctness gate.
	kern   *kernelCell
	serial bool // the sample times Instance.Serial, not Instance.Run

	t     []float64            // per-round seconds per call
	calls []float64            // seconds of every single timed call
	aux   map[string][]float64 // per-round sub-timings and stats a call notes
	ctr   map[string]int64     // obs counter deltas over the traced rounds
}

type pairing struct {
	ref    *cell
	weight float64
}

// kernelCell ties a cell to the registry instance it executes.
type kernelCell struct {
	v    *kernelreg.Variant
	inst *kernelreg.Instance
	wb   *kernelreg.Workbench
	mode int
}

func (c *cell) note(key string, v float64) {
	if c.aux == nil {
		c.aux = make(map[string][]float64)
	}
	c.aux[key] = append(c.aux[key], v)
}

// plain adapts a single-operation call to the run signature.
func plain(f func() error) func() (int, error) {
	return func() (int, error) {
		if err := f(); err != nil {
			return 1, err
		}
		return 0, nil
	}
}

// span is one harness-recorded interval around a call into a layer.
type span struct {
	name       string
	id         string // workload/round
	parent     string // the round span's name, "" for a round span
	start, end time.Duration
}

// harness runs rounds over a cell list and owns the run's bookkeeping.
type harness struct {
	workload string
	cells    []*cell

	attempted, failed int
	firstErrs         []string

	traced  bool
	epoch   time.Time
	spans   []span
	roundS  map[bool][]float64 // round wall time, keyed by traced
	peakMB  float64
	nRounds int
}

func newHarness(workload string, cells []*cell) *harness {
	return &harness{workload: workload, cells: cells, epoch: time.Now(), roundS: make(map[bool][]float64)}
}

func (h *harness) fail(where string, err error) {
	if len(h.firstErrs) < 20 {
		h.firstErrs = append(h.firstErrs, fmt.Sprintf("%s: %v", where, err))
	}
}

// check books one post-run verification as an attempted operation.
func (h *harness) check(where string, err error) {
	h.attempted++
	if err != nil {
		h.failed++
		h.fail(where, err)
	}
}

// calibrateAll freezes every cell's batch size; it is the last step of
// set-up and doubles as the warm-up of every cell.
func calibrateAll(cells []*cell) {
	for _, c := range cells {
		c.k = 1
		run := func() error {
			if c.before != nil {
				c.before()
			}
			_, err := c.run()
			return err
		}
		if c.noBatch || c.before != nil {
			_ = run() // warm-up only; errors resurface in the timed rounds
			continue
		}
		c.k = calibrate(run, batchFloor)
	}
}

// round visits every cell once. With tracing on it also records a span
// and the obs counter deltas around every cell.
func (h *harness) round() {
	id := h.workload + "/" + strconv.Itoa(h.nRounds)
	roundName := "bench.round"
	rstart := time.Now()
	for _, c := range h.cells {
		if c.before != nil {
			c.before()
		}
		var before map[string]int64
		if h.traced {
			before = obs.CounterSnapshot()
		}
		start := time.Now()
		last := start
		for i := 0; i < c.k; i++ {
			failed, err := c.run()
			now := time.Now()
			c.calls = append(c.calls, now.Sub(last).Seconds())
			last = now
			h.attempted += c.ops
			if failed > 0 || err != nil {
				if failed == 0 {
					failed = 1
				}
				h.failed += failed
				h.fail(c.name, err)
			}
		}
		end := last
		c.t = append(c.t, end.Sub(start).Seconds()/float64(c.k))
		if h.traced {
			for name, d := range obs.DiffSnapshot(before, obs.CounterSnapshot()) {
				if c.ctr == nil {
					c.ctr = make(map[string]int64)
				}
				c.ctr[name] += d
			}
			h.spans = append(h.spans, span{c.name, id, roundName, start.Sub(h.epoch), end.Sub(h.epoch)})
		}
	}
	rend := time.Now()
	h.roundS[h.traced] = append(h.roundS[h.traced], rend.Sub(rstart).Seconds())
	if h.traced {
		h.spans = append(h.spans, span{roundName, id, "", rstart.Sub(h.epoch), rend.Sub(h.epoch)})
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if mb := float64(ms.HeapAlloc) / (1 << 20); mb > h.peakMB {
		h.peakMB = mb
	}
	h.nRounds++
	// Collect outside every timed region so one cell's garbage is not
	// charged to whichever cell happens to run next.
	runtime.GC()
}

// runFor does rounds until d has elapsed, and at least minRounds.
func (h *harness) runFor(d time.Duration) {
	start := time.Now()
	for n := 0; n < minRounds || time.Since(start) < d; n++ {
		h.round()
	}
}

// writeTrace writes the harness spans as Chrome trace JSON (the writer
// validates what it wrote; `go run ./cmd/pastatrace -validate` accepts
// the file).
func (h *harness) writeTrace(path string) error {
	out := make([]obs.Span, 0, len(h.spans))
	for _, s := range h.spans {
		attrs := []obs.Attr{{Key: "id", Val: s.id}}
		if s.parent != "" {
			attrs = append(attrs, obs.Attr{Key: "parent", Val: s.parent})
		}
		out = append(out, obs.Span{
			Name: s.name, Phase: obs.PhaseTrial, Worker: -1,
			Start: s.start, Dur: s.end - s.start, Attrs: attrs,
		})
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return obs.WriteChromeTraceFile(path, out)
}
