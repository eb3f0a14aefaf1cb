package ooc

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/tensor"
)

// probe is the io.ReaderAt under a tile stream's prefetcher: it counts the
// reads in flight and the reads begun after the stream returned, fails the
// read at one offset, and holds every read for a millisecond, so the
// prefetcher is inside ReadTile whenever the compute loop stops.
type probe struct {
	img            []byte
	failAt         int64
	inflight, late atomic.Int32
	returned       atomic.Bool
}

func (p *probe) ReadAt(b []byte, off int64) (int, error) {
	if p.returned.Load() {
		p.late.Add(1)
	}
	p.inflight.Add(1)
	defer p.inflight.Add(-1)
	time.Sleep(time.Millisecond)
	if off == p.failAt {
		return 0, errors.New("probe: injected read failure")
	}
	return bytes.NewReader(p.img).ReadAt(b, off)
}

// TestStreamReleasesAndJoins: whatever ends a stream — a failed tile read,
// a failed compute, a cancelled context, or the last tile — every lease is
// back in the ledger and the prefetcher has exited when stream returns, at
// a budget with room for the prefetched tile and at one that holds a
// single tile, where the prefetcher waits in acquire.
func TestStreamReleasesAndJoins(t *testing.T) {
	var buf bytes.Buffer
	if err := tensor.WriteBinaryTiled(&buf, testTensor(t, 10), 512); err != nil {
		t.Fatal(err)
	}
	const stop = 3 // the tile the failing streams stop at
	errCompute := errors.New("compute failed")
	for _, c := range []struct {
		name       string
		readFails  bool  // the read of tile stop fails
		computeErr error // compute's result at tile stop
		cancels    bool  // compute cancels the context at tile stop
		tiles      int64 // tiles computed; -1: all
		want       string
	}{
		{"success", false, nil, false, -1, ""},
		{"read error", true, nil, false, stop, fmt.Sprintf("tile %d read: probe", stop)},
		{"compute error", false, errCompute, false, stop + 1, errCompute.Error()},
		{"cancellation", false, nil, true, stop + 1, context.Canceled.Error()},
	} {
		for _, room := range []int64{5, 2} {
			label := fmt.Sprintf("%s, budget %d x largest tile", c.name, room)
			p := &probe{img: buf.Bytes(), failAt: -1}
			tr, err := tensor.NewTileReader(p, int64(len(p.img)))
			if err != nil {
				t.Fatal(err)
			}
			if c.readFails {
				p.failAt = int64(tr.Tiles[stop].Offset)
			}
			if c.tiles < 0 {
				c.tiles = int64(tr.NumTiles())
			}
			ctx, cancel := context.WithCancel(context.Background())
			led := newLedger(room * tr.MaxTileBytes())
			st, err := led.stream(ctx, tr, "test", func(idx int, _ *tensor.Tile) error {
				if idx != stop {
					return nil
				}
				if c.cancels {
					cancel()
				}
				return c.computeErr
			})
			p.returned.Store(true)
			inflight := p.inflight.Load()
			led.mu.Lock()
			used := led.used
			led.mu.Unlock()
			cancel()

			if (c.want == "") != (err == nil) || err != nil && !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s: err = %v, want %q", label, err, c.want)
			}
			if st.Tiles != c.tiles || st.Evictions != st.Tiles || st.PeakBytes > led.budget {
				t.Errorf("%s: stats %+v, want %d tiles computed and evicted, peak within %d", label, st, c.tiles, led.budget)
			}
			if used != 0 {
				t.Errorf("%s: %d bytes still leased when stream returned", label, used)
			}
			time.Sleep(5 * time.Millisecond) // a prefetcher left running would read again by now
			if inflight != 0 || p.late.Load() != 0 {
				t.Errorf("%s: prefetcher still running when stream returned: %d reads in flight, %d begun after", label, inflight, p.late.Load())
			}
		}
	}
}
