// Package ooc is the out-of-core streaming execution layer: it runs
// the reduction kernels (MTTKRP, Ttv) over a PSTB v3 tile stream under
// a hard byte budget, so tensors larger than memory — the scenario the
// in-core stack must reject — still execute, just slower.
//
// The design follows the out-of-memory MTTKRP literature (see
// PAPERS.md, arXiv:2201.12523): the tensor is partitioned into tiles
// on disk, tiles are leased against a byte budget with govern-style
// accounting, and a double-buffered prefetch pipeline overlaps the
// next tile's read + decode with the current tile's compute. Dense
// operands (factor matrices, vectors) and the kernel output are
// in-core working state charged to the caller; the budget governs the
// tensor-resident bytes, which is what scales with the dataset.
//
// Determinism: each kernel has one per-tile body that adds every entry
// into its output slot — plainly when Options.Sched resolves to one
// worker, atomically under parallel.For otherwise. With one worker the
// entries accumulate in file order, and because tiles partition the
// naturally sorted tensor, the floating-point addition order is that of
// a serial in-core execution over the same sorted data: streamed
// outputs are bit-exact against the in-core serial kernels, the
// property the tests pin. More workers trade that for speed and verify
// within the suite tolerance like every other parallel variant.
//
// Every run feeds the shared obs registry: ooc.tiles, ooc.bytes_read,
// ooc.prefetch_hits, ooc.prefetch_stalls, and ooc.evictions surface in
// the pastad /metrics scrape as pasta_ooc_*.
package ooc

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

var (
	ctrTiles          = obs.GetCounter("ooc.tiles")
	ctrBytesRead      = obs.GetCounter("ooc.bytes_read")
	ctrPrefetchHits   = obs.GetCounter("ooc.prefetch_hits")
	ctrPrefetchStalls = obs.GetCounter("ooc.prefetch_stalls")
	ctrEvictions      = obs.GetCounter("ooc.evictions")
)

// DefaultBudget is the tile-residency budget when Options.MemBudget is
// zero: 64 MiB, comfortably eight default-size tiles.
const DefaultBudget = 64 << 20

// ErrBudgetTooSmall marks a budget that cannot hold even one tile
// resident; no amount of eviction can make the stream fit, so it fails
// fast like govern.ErrOverBudget.
var ErrBudgetTooSmall = errors.New("ooc: memory budget below a single tile's working set")

// Options configures a streaming execution.
type Options struct {
	// MemBudget is the hard byte budget for tile-resident bytes (raw +
	// decoded); 0 selects DefaultBudget.
	MemBudget int64
	// Sched is the scheduling policy the per-tile compute runs with;
	// Threads: 1 gives the file-order accumulation whose output is
	// bit-exact against the in-core serial kernels.
	Sched parallel.Options
}

// budget returns the effective budget.
func (o Options) budget() int64 {
	if o.MemBudget > 0 {
		return o.MemBudget
	}
	return DefaultBudget
}

// Stats reports what one streaming execution did.
type Stats struct {
	// Tiles is the number of tiles streamed through the pipeline.
	Tiles int64
	// BytesRead is the total payload bytes fetched from the reader.
	BytesRead int64
	// PrefetchHits counts tiles that were already resident when the
	// compute loop asked for them (the pipeline overlapped fully).
	PrefetchHits int64
	// PrefetchStalls counts tiles the compute loop had to wait for.
	PrefetchStalls int64
	// Evictions counts tiles released from the resident set after
	// their compute completed.
	Evictions int64
	// PeakBytes is the high-water mark of leased tile-resident bytes;
	// the ledger guarantees PeakBytes <= Budget.
	PeakBytes int64
	// Budget echoes the effective budget the run was admitted against.
	Budget int64
}

// ledger is the govern-style byte accounting tiles are leased from: a
// lease blocks until the budget has headroom, and the high-water mark
// proves the budget held.
type ledger struct {
	mu     sync.Mutex
	cond   *sync.Cond
	budget int64
	used   int64
	peak   int64
}

func newLedger(budget int64) *ledger {
	l := &ledger{budget: budget}
	l.cond = sync.NewCond(&l.mu)
	return l
}

// acquire leases n bytes, blocking until they fit or ctx is done. A
// lease larger than the whole budget fails fast with ErrBudgetTooSmall.
func (l *ledger) acquire(ctx context.Context, n int64) error {
	if n > l.budget {
		return fmt.Errorf("%w: tile needs %d bytes, budget is %d", ErrBudgetTooSmall, n, l.budget)
	}
	stop := context.AfterFunc(ctx, func() {
		l.mu.Lock()
		l.cond.Broadcast()
		l.mu.Unlock()
	})
	defer stop()
	l.mu.Lock()
	defer l.mu.Unlock()
	for l.used+n > l.budget {
		if err := ctx.Err(); err != nil {
			return err
		}
		l.cond.Wait()
	}
	l.used += n
	if l.used > l.peak {
		l.peak = l.used
	}
	return nil
}

// release returns n leased bytes and wakes waiting prefetchers.
func (l *ledger) release(n int64) {
	l.mu.Lock()
	l.used -= n
	l.mu.Unlock()
	l.cond.Broadcast()
}

// tileMsg is one prefetched tile handed from the reader goroutine to
// the compute loop.
type tileMsg struct {
	idx   int
	tile  *tensor.Tile
	lease int64
	err   error
}

// tileCost is the resident working set of one decoded tile: the raw
// payload staging buffer plus the decoded index/value arrays, both
// sized ti.Bytes.
func tileCost(ti *tensor.TileInfo) int64 { return 2 * int64(ti.Bytes) }

// stream drives the double-buffered prefetch pipeline: a reader
// goroutine leases budget, fetches and decodes tiles ahead of the
// compute loop, and the compute loop consumes them in order, releasing
// each lease (an eviction) when the tile's compute completes. label
// names the consuming kernel in obs spans. However it ends, it returns
// only once the reader goroutine has exited and every lease is released.
func (led *ledger) stream(ctx context.Context, tr *tensor.TileReader, label string,
	compute func(idx int, tl *tensor.Tile) error) (st Stats, err error) {
	st = Stats{Budget: led.budget}
	sctx, cancel := context.WithCancel(ctx)

	// Two recycled buffers: one computing, one prefetching. The tiles
	// channel is unbuffered, so a non-blocking receive succeeding means
	// the prefetcher finished the next tile before compute needed it.
	free := make(chan *tensor.Tile, 2)
	free <- &tensor.Tile{}
	free <- &tensor.Tile{}
	tiles := make(chan tileMsg)

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := range tr.Tiles {
			var tl *tensor.Tile
			select {
			case tl = <-free:
			case <-sctx.Done():
				return
			}
			lease := tileCost(&tr.Tiles[i])
			msg := tileMsg{idx: i, tile: tl, lease: lease}
			if err := led.acquire(sctx, lease); err != nil {
				msg.err = err
				msg.lease = 0
			} else {
				sp := obs.Begin("ooc.read", label, obs.PhasePrepare, -1)
				msg.err = tr.ReadTile(i, tl)
				sp.End()
				ctrTiles.Inc()
				ctrBytesRead.Add(int64(tr.Tiles[i].Bytes))
			}
			select {
			case tiles <- msg:
			case <-sctx.Done():
				led.release(msg.lease)
				return
			}
			if msg.err != nil {
				return
			}
		}
	}()

	// Whatever ends the loop, the prefetcher is stopped and waited for;
	// then the ledger is this goroutine's alone and its high-water mark is
	// reported.
	defer func() {
		cancel()
		<-done
		st.PeakBytes = led.peak
	}()
	for next := 0; next < len(tr.Tiles); next++ {
		// A tile boundary always observes the context: a prefetched tile
		// can win the select below against Done.
		if err := ctx.Err(); err != nil {
			return st, err
		}
		var msg tileMsg
		select {
		case msg = <-tiles:
			st.PrefetchHits++
			ctrPrefetchHits.Inc()
		default:
			st.PrefetchStalls++
			ctrPrefetchStalls.Inc()
			select {
			case msg = <-tiles:
			case <-ctx.Done():
				return st, ctx.Err()
			}
		}
		if msg.err != nil {
			led.release(msg.lease)
			return st, msg.err
		}
		st.Tiles++
		st.BytesRead += int64(tr.Tiles[msg.idx].Bytes)
		sp := obs.Begin("ooc.tile", label, obs.PhaseChunk, -1)
		cerr := compute(msg.idx, msg.tile)
		sp.End()
		led.release(msg.lease)
		st.Evictions++
		ctrEvictions.Inc()
		select {
		case free <- msg.tile:
		default:
		}
		if cerr != nil {
			return st, cerr
		}
	}
	return st, nil
}

// forTile runs a tile's one body over its cnt entries. When sched
// resolves to one worker the body runs directly, in file order and with
// plain adds, outside parallel.For and its chunk hooks, so it is the
// serial path a degradation ladder can fall back to. Otherwise it runs
// on parallel.For, and shared tells it that workers write the same
// output slots, so its adds must be atomic.
func forTile(cnt int, sched parallel.Options, body func(lo, hi int, shared bool)) error {
	if parallel.ResolveThreads(cnt, sched) == 1 {
		body(0, cnt, false)
		return nil
	}
	return parallel.For(cnt, sched, func(lo, hi, _ int) { body(lo, hi, true) })
}

// validateReader rejects streams the reduction kernels cannot run on.
func validateReader(tr *tensor.TileReader, mode int) error {
	if tr.Order() < 2 {
		return fmt.Errorf("ooc: streaming kernels need an order >= 2 tensor, got %d", tr.Order())
	}
	if mode < 0 || mode >= tr.Order() {
		return fmt.Errorf("ooc: mode %d out of range for order-%d tensor", mode, tr.Order())
	}
	return nil
}
