package ooc

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"os"
	"testing"

	"repro/internal/core"
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// tiledReader serializes x into an in-memory v3 image with the given
// tile size and opens a TileReader over it.
func tiledReader(t *testing.T, x *tensor.COO, tileNNZ int) *tensor.TileReader {
	t.Helper()
	var buf bytes.Buffer
	if err := tensor.WriteBinaryTiled(&buf, x, tileNNZ); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	tr, err := tensor.NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// serial is the one-worker schedule whose stream accumulates in file
// order, bit-exact against the serial in-core kernels.
var serial = parallel.Options{Threads: 1}

func testTensor(t *testing.T, seed int64) *tensor.COO {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	return tensor.RandomCOO([]tensor.Index{64, 48, 40}, 20000, rng)
}

func factorMats(x *tensor.COO, r int) []*tensor.Matrix {
	rng := rand.New(rand.NewSource(777))
	mats := make([]*tensor.Matrix, x.Order())
	for n := range mats {
		mats[n] = tensor.NewMatrix(int(x.Dims[n]), r)
		mats[n].Randomize(rng)
	}
	return mats
}

// streamBudget picks a budget large enough for double buffering but a
// small fraction of the total tensor bytes, so the test actually
// exercises leasing and eviction.
func streamBudget(t *testing.T, tr *tensor.TileReader) int64 {
	t.Helper()
	budget := 5 * tr.MaxTileBytes()
	total := int64(4 * (tr.Order() + 1) * int(tr.NNZ))
	if budget*4 > total {
		t.Fatalf("test geometry broken: budget %d not ≪ tensor bytes %d", budget, total)
	}
	return budget
}

// TestStreamingMttkrpBitExact is the core determinism contract: the
// one-worker streamed MTTKRP must be bit-identical to the serial in-core
// kernel on the same (naturally sorted) data, with peak leased bytes
// under a budget far below the tensor size.
func TestStreamingMttkrpBitExact(t *testing.T) {
	x := testTensor(t, 1)
	mats := factorMats(x, 16)
	tr := tiledReader(t, x, 256)
	if tr.NumTiles() < 8 {
		t.Fatalf("test geometry broken: only %d tiles", tr.NumTiles())
	}
	budget := streamBudget(t, tr)

	xs := x.Clone()
	xs.SortNatural()
	for mode := 0; mode < x.Order(); mode++ {
		plan, err := core.PrepareMttkrp(xs, mode, 16)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.ExecuteSeq(mats)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Mttkrp(context.Background(), tr, mats, mode, Options{MemBudget: budget, Sched: serial})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("mode %d: output[%d] = %x, in-core %x: not bit-exact", mode, i, got.Data[i], want.Data[i])
			}
		}
		if st.PeakBytes > budget {
			t.Fatalf("mode %d: peak %d exceeds budget %d", mode, st.PeakBytes, budget)
		}
		if st.PeakBytes == 0 || st.Tiles != int64(tr.NumTiles()) || st.Evictions != st.Tiles {
			t.Fatalf("mode %d: implausible stats %+v", mode, st)
		}
		if st.BytesRead != int64(4*(x.Order()+1)*x.NNZ()) {
			t.Fatalf("mode %d: read %d bytes, want full payload", mode, st.BytesRead)
		}
		if st.PrefetchHits+st.PrefetchStalls != st.Tiles {
			t.Fatalf("mode %d: hits %d + stalls %d != tiles %d", mode, st.PrefetchHits, st.PrefetchStalls, st.Tiles)
		}
	}
}

// TestStreamingTtvBitExact is the Ttv leg: natural tile order delivers
// each fiber's entries in ascending product-mode order — the same
// order the in-core fiber sort produces — so the one-worker stream
// reproduces the in-core serial bits fiber by fiber.
func TestStreamingTtvBitExact(t *testing.T) {
	x := testTensor(t, 2)
	tr := tiledReader(t, x, 256)
	budget := streamBudget(t, tr)
	for mode := 0; mode < x.Order(); mode++ {
		rng := rand.New(rand.NewSource(int64(mode)))
		v := tensor.RandomVector(int(x.Dims[mode]), rng)
		want, err := core.Ttv(x, v, mode)
		if err != nil {
			t.Fatal(err)
		}
		got, st, err := Ttv(context.Background(), tr, v, mode, Options{MemBudget: budget, Sched: serial})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if got.NNZ() != want.NNZ() {
			t.Fatalf("mode %d: %d output fibers, in-core has %d", mode, got.NNZ(), want.NNZ())
		}
		natural := tensor.OtherModes(want.Order(), -1)
		ws, gs := want.SortedBy(natural), got.SortedBy(natural)
		for i, wv := range ws.Vals {
			for n := range ws.Inds {
				if gs.Inds[n][i] != ws.Inds[n][i] {
					t.Fatalf("mode %d: output %d sits at mode-%d index %d, in-core at %d", mode, i, n, gs.Inds[n][i], ws.Inds[n][i])
				}
			}
			if gv := gs.Vals[i]; math.Float32bits(gv) != math.Float32bits(wv) {
				t.Fatalf("mode %d: output %d = %x, in-core %x: not bit-exact", mode, i, gv, wv)
			}
		}
		if st.PeakBytes > budget || st.Tiles != int64(tr.NumTiles()) {
			t.Fatalf("mode %d: implausible stats %+v", mode, st)
		}
	}
}

// TestStreamingParallelAgrees runs both kernels on four workers, whose
// adds are atomic, against the in-core reference within the suite
// tolerance.
func TestStreamingParallelAgrees(t *testing.T) {
	const tol = 2e-3
	x := testTensor(t, 3)
	mats := factorMats(x, 16)
	tr := tiledReader(t, x, 256)
	budget := streamBudget(t, tr)
	for mode := 0; mode < x.Order(); mode++ {
		plan, err := core.PrepareMttkrp(x, mode, 16)
		if err != nil {
			t.Fatal(err)
		}
		want, err := plan.ExecuteSeq(mats)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := Mttkrp(context.Background(), tr, mats, mode, Options{MemBudget: budget, Sched: parallel.Options{Threads: 4}})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		for i := range want.Data {
			if d := float64(got.Data[i]) - float64(want.Data[i]); d > tol || d < -tol {
				t.Fatalf("mode %d: output[%d] off by %g", mode, i, d)
			}
		}

		rng := rand.New(rand.NewSource(int64(mode)))
		v := tensor.RandomVector(int(x.Dims[mode]), rng)
		wantY, err := core.Ttv(x, v, mode)
		if err != nil {
			t.Fatal(err)
		}
		gotY, _, err := Ttv(context.Background(), tr, v, mode, Options{MemBudget: budget, Sched: parallel.Options{Threads: 4}})
		if err != nil {
			t.Fatalf("mode %d: %v", mode, err)
		}
		if d := tensor.AbsDiff(wantY, gotY); d > tol {
			t.Fatalf("mode %d: Ttv deviation %g", mode, d)
		}
	}
}

// TestBudgetTooSmall pins the fail-fast path: a budget below one
// tile's working set can never stream.
func TestBudgetTooSmall(t *testing.T) {
	x := testTensor(t, 4)
	mats := factorMats(x, 16)
	tr := tiledReader(t, x, 1024)
	_, _, err := Mttkrp(context.Background(), tr, mats, 0, Options{MemBudget: 64, Sched: serial})
	if !errors.Is(err, ErrBudgetTooSmall) {
		t.Fatalf("err = %v, want ErrBudgetTooSmall", err)
	}
}

// TestCancellation: a canceled context aborts the stream with its
// error and the prefetch goroutine exits (the race detector and test
// timeout police the leak).
func TestCancellation(t *testing.T) {
	x := testTensor(t, 5)
	mats := factorMats(x, 16)
	tr := tiledReader(t, x, 64)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := Mttkrp(ctx, tr, mats, 0, Options{Sched: serial})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCorruptTileSurfacesError: a bit-flipped tile payload becomes a
// checksum error from the stream, never a panic or silent corruption.
func TestCorruptTileSurfacesError(t *testing.T) {
	x := testTensor(t, 6)
	mats := factorMats(x, 16)
	var buf bytes.Buffer
	if err := tensor.WriteBinaryTiled(&buf, x, 512); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	tr, err := tensor.NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	mid := tr.Tiles[tr.NumTiles()/2]
	raw[mid.Offset+uint64(mid.Bytes)/2] ^= 0x20
	if _, _, err = Mttkrp(context.Background(), tr, mats, 0, Options{Sched: serial}); err == nil {
		t.Fatal("corrupt tile streamed without error")
	}
}

// TestNonFiniteTileSurfacesError: a NaN inside a tile whose checksum is
// valid used to stream straight into the kernels (ReadTile checked
// indices only, the in-core reader rejected the same image). The stream
// must stop at that tile with the reader's error, having released the
// lease of every tile it delivered, on one worker and two, for both
// kernels.
func TestNonFiniteTileSurfacesError(t *testing.T) {
	x := testTensor(t, 9)
	mats := factorMats(x, 16)
	var buf bytes.Buffer
	if err := tensor.WriteBinaryTiled(&buf, x, 512); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	tr, err := tensor.NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// Plant the NaN as value 7 of a middle tile, then re-seal the tile's
	// checksum in its directory entry and the directory's own.
	order, bad := tr.Order(), tr.NumTiles()/2
	ti := tr.Tiles[bad]
	binary.LittleEndian.PutUint32(raw[int(ti.Offset)+4*(order*int(ti.Count)+7):], 0x7FC00000)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	entryLen := 28 + 8*order
	dirStart := 12 + 24 + 4*order + 4
	dirEnd := dirStart + tr.NumTiles()*entryLen
	binary.LittleEndian.PutUint32(raw[dirStart+bad*entryLen+24:], crc32.Checksum(raw[ti.Offset:ti.Offset+uint64(ti.Bytes)], castagnoli))
	binary.LittleEndian.PutUint32(raw[dirEnd:], crc32.Checksum(raw[dirStart:dirEnd], castagnoli))
	if tr, err = tensor.NewTileReader(bytes.NewReader(raw), int64(len(raw))); err != nil {
		t.Fatalf("re-sealed image does not open: %v", err)
	}

	want := fmt.Sprintf("tensor: tile %d entry 7 has non-finite value NaN", bad)
	budget := streamBudget(t, tr)
	for _, threads := range []int{1, 2} {
		opt := Options{MemBudget: budget, Sched: parallel.Options{Threads: threads}}
		_, mst, merr := Mttkrp(context.Background(), tr, mats, 0, opt)
		_, tst, terr := Ttv(context.Background(), tr, make(tensor.Vector, x.Dims[1]), 1, opt)
		for kernel, r := range map[string]struct {
			st  Stats
			err error
		}{"Mttkrp": {mst, merr}, "Ttv": {tst, terr}} {
			if r.err == nil || r.err.Error() != want {
				t.Fatalf("%s (threads=%d): err = %v, want %q", kernel, threads, r.err, want)
			}
			if r.st.Tiles != int64(bad) || r.st.Evictions != r.st.Tiles || r.st.PeakBytes > budget {
				t.Fatalf("%s (threads=%d): stats %+v, want %d tiles delivered and as many evicted, peak within %d", kernel, threads, r.st, bad, budget)
			}
		}
	}
}

// TestStreamingValidation covers the argument validation paths.
func TestStreamingValidation(t *testing.T) {
	x := testTensor(t, 7)
	tr := tiledReader(t, x, 1024)
	mats := factorMats(x, 16)
	if _, _, err := Mttkrp(context.Background(), tr, mats, 9, Options{}); err == nil {
		t.Fatal("out-of-range mode accepted")
	}
	if _, _, err := Mttkrp(context.Background(), tr, mats[:2], 0, Options{}); err == nil {
		t.Fatal("short factor list accepted")
	}
	if _, _, err := Ttv(context.Background(), tr, make(tensor.Vector, 3), 0, Options{}); err == nil {
		t.Fatal("wrong vector length accepted")
	}
}

// TestEmptyTilesStream: a stream containing empty tiles computes the
// same result (the CI geometry can produce them at dataset edges).
func TestEmptyTilesStream(t *testing.T) {
	x := testTensor(t, 8)
	mats := factorMats(x, 16)
	// One tile per 4096 entries over ~5000 nnz yields a short last tile;
	// shrink until several tiles exist, then compare against one tile.
	trMany := tiledReader(t, x, 512)
	trOne := tiledReader(t, x, 1<<30)
	a, _, err := Mttkrp(context.Background(), trMany, mats, 1, Options{Sched: serial})
	if err != nil {
		t.Fatal(err)
	}
	b, _, err := Mttkrp(context.Background(), trOne, mats, 1, Options{Sched: serial})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("tiling changed one-worker output at %d", i)
		}
	}
}

// TestSpool: the spool streams back the tensor it was given from a file
// with no directory entry, sliced into ~16 tiles, and SpoolMinBudget —
// computed from the shape alone — is the window those tiles need.
func TestSpool(t *testing.T) {
	dir := t.TempDir()
	t.Setenv("TMPDIR", dir)
	x := testTensor(t, 9)
	tr, size, err := Spool(x)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	if left, err := os.ReadDir(dir); err != nil || len(left) != 0 {
		t.Fatalf("spool left %d directory entries behind (err %v)", len(left), err)
	}
	if size <= int64(4*(x.Order()+1)*x.NNZ()) {
		t.Fatalf("file size %d does not cover the %d-nnz payload", size, x.NNZ())
	}
	if int(tr.NNZ) != x.NNZ() || tr.NumTiles() < 16 || tr.NumTiles() > 17 {
		t.Fatalf("spooled %d nnz in %d tiles, want %d nnz in ~16", tr.NNZ, tr.NumTiles(), x.NNZ())
	}
	min := SpoolMinBudget(x.Order(), x.NNZ())
	if min != 4*tr.MaxTileBytes() {
		t.Fatalf("SpoolMinBudget = %d, want 4 x the largest tile = %d", min, 4*tr.MaxTileBytes())
	}

	// The unlinked file is still readable, and streams under the floor.
	mats := factorMats(x, 4)
	want := tensor.NewMatrix(int(x.Dims[0]), 4)
	xs := x.SortedBy(tensor.OtherModes(x.Order(), -1))
	core.MttkrpCOORange(xs.Inds, xs.Vals, 0, 4, mats, want.Data, 0, xs.NNZ(), false)
	got, st, err := Mttkrp(context.Background(), tr, mats, 0, Options{MemBudget: min, Sched: serial})
	if err != nil {
		t.Fatal(err)
	}
	if st.PeakBytes > min {
		t.Fatalf("peak %d over the floor %d", st.PeakBytes, min)
	}
	for i, v := range want.Data {
		if got.Data[i] != v {
			t.Fatalf("streamed output differs at %d: %v vs %v", i, got.Data[i], v)
		}
	}
}
