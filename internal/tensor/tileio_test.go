package tensor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tiledImage(t *testing.T, x *COO, tileNNZ int) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteBinaryTiled(&buf, x, tileNNZ); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestTiledRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x := RandomCOO([]Index{40, 30, 20}, 900, rng)
	raw := tiledImage(t, x, 128)
	if raw[4] != binVersion3 {
		t.Fatalf("version byte %d, want %d", raw[4], binVersion3)
	}
	// The in-core dispatch path assembles the full tensor.
	y, err := readBinaryAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d := AbsDiff(x, y); d != 0 {
		t.Fatalf("content diff %v", d)
	}
	// The unknown-size path agrees.
	yu, err := readBinaryAll(opaqueReader{bytes.NewReader(raw)})
	if err != nil {
		t.Fatal(err)
	}
	if !identicalCOO(y, yu) {
		t.Fatal("sized and chunked v3 parses differ")
	}
}

func TestTileReaderStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := RandomCOO([]Index{64, 48, 32}, 1000, rng)
	raw := tiledImage(t, x, 100)
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if want := (x.NNZ() + 99) / 100; tr.NumTiles() != want {
		t.Fatalf("tile count %d, want %d", tr.NumTiles(), want)
	}
	if tr.TargetTileNNZ != 100 || tr.NNZ != uint64(x.NNZ()) {
		t.Fatalf("header fields target=%d nnz=%d", tr.TargetTileNNZ, tr.NNZ)
	}
	// Reassemble through one reused Tile buffer; every index must sit
	// inside its directory bounding box (ReadTile enforces it, so a
	// successful read is the assertion).
	got := &COO{Dims: tr.Dims, Inds: make([][]Index, tr.Order())}
	var tl Tile
	var total uint64
	for i := 0; i < tr.NumTiles(); i++ {
		if err := tr.ReadTile(i, &tl); err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
		if uint64(tl.NNZ()) != uint64(tr.Tiles[i].Count) {
			t.Fatalf("tile %d decoded %d entries, directory says %d", i, tl.NNZ(), tr.Tiles[i].Count)
		}
		total += uint64(tl.NNZ())
		for n := range got.Inds {
			got.Inds[n] = append(got.Inds[n], tl.Inds[n]...)
		}
		got.Vals = append(got.Vals, tl.Vals...)
	}
	if total != tr.NNZ {
		t.Fatalf("tiles held %d entries, header says %d", total, tr.NNZ)
	}
	if d := AbsDiff(x, got); d != 0 {
		t.Fatalf("streamed content diff %v", d)
	}
	// The streamed payload is the naturally sorted tensor.
	if !got.isSorted(OtherModes(got.Order(), -1)) {
		t.Fatal("tile stream is not in natural sort order")
	}
}

func TestTiledSingleTile(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	x := RandomCOO([]Index{10, 10, 10}, 200, rng)
	raw := tiledImage(t, x, 10_000_000)
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTiles() != 1 {
		t.Fatalf("tile count %d, want 1", tr.NumTiles())
	}
	if tr.MaxTileBytes() != int64(4*(x.Order()+1)*x.NNZ()) {
		t.Fatalf("MaxTileBytes %d", tr.MaxTileBytes())
	}
	var tl Tile
	if err := tr.ReadTile(0, &tl); err != nil {
		t.Fatal(err)
	}
	if tl.NNZ() != x.NNZ() {
		t.Fatalf("single tile holds %d entries, want %d", tl.NNZ(), x.NNZ())
	}
}

func TestTiledEmptyTiles(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	x := RandomCOO([]Index{16, 16, 16}, 120, rng)
	x.SortNatural()
	nnz := uint64(x.NNZ())
	// Explicit bounds with empty tiles at the front, middle, and end.
	var buf bytes.Buffer
	if err := writeBinaryTiled(&buf, x, 50, []uint64{0, 0, 50, 50, 50, nnz, nnz}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTiles() != 6 {
		t.Fatalf("tile count %d, want 6", tr.NumTiles())
	}
	var tl Tile
	gotNNZ := 0
	for i := 0; i < tr.NumTiles(); i++ {
		ti := &tr.Tiles[i]
		if err := tr.ReadTile(i, &tl); err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
		gotNNZ += tl.NNZ()
		if ti.Empty() {
			if tl.NNZ() != 0 || ti.Bytes != 0 {
				t.Fatalf("empty tile %d decoded %d entries, %d bytes", i, tl.NNZ(), ti.Bytes)
			}
			for n := 0; n < tr.Order(); n++ {
				if ti.BoxLo[n] != emptyBoxLo || ti.BoxHi[n] != 0 {
					t.Fatalf("empty tile %d box sentinel wrong: [%d,%d]", i, ti.BoxLo[n], ti.BoxHi[n])
				}
			}
		}
	}
	if gotNNZ != x.NNZ() {
		t.Fatalf("tiles held %d entries, want %d", gotNNZ, x.NNZ())
	}
	// The in-core path tolerates empty tiles too.
	y, err := readBinaryAll(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if d := AbsDiff(x, y); d != 0 {
		t.Fatalf("content diff %v", d)
	}
}

func TestTiledEmptyTensor(t *testing.T) {
	x := NewCOO([]Index{4, 5}, 0)
	raw := tiledImage(t, x, 64)
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumTiles() != 0 || tr.NNZ != 0 {
		t.Fatalf("empty tensor parsed as %d tiles, %d nnz", tr.NumTiles(), tr.NNZ)
	}
	if _, err := readBinaryAll(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
}

// TestTiledCorruption is the v3 leg of the corrupt-input fault matrix:
// every corruption — tile payload bit-flips, directory bit-flips,
// truncation at any prefix — must produce an error, never a panic or
// silently wrong data.
func TestTiledCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	x := RandomCOO([]Index{30, 30, 30}, 400, rng)
	raw := tiledImage(t, x, 64)
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("tile-payload-flip", func(t *testing.T) {
		for i := range tr.Tiles {
			ti := &tr.Tiles[i]
			for _, at := range []uint64{ti.Offset, ti.Offset + uint64(ti.Bytes)/2, ti.Offset + uint64(ti.Bytes) - 1} {
				bad := append([]byte(nil), raw...)
				bad[at] ^= 0x40
				btr, err := NewTileReader(bytes.NewReader(bad), int64(len(bad)))
				if err != nil {
					t.Fatalf("tile %d: directory parse should survive payload corruption: %v", i, err)
				}
				var tl Tile
				if err := btr.ReadTile(i, &tl); err == nil {
					t.Fatalf("tile %d: corrupt payload at %d read without error", i, at)
				}
				if _, err := readEvery(t, bad); err == nil {
					t.Fatalf("tile %d: in-core read accepted corrupt payload at %d", i, at)
				}
			}
		}
	})

	t.Run("directory-flip", func(t *testing.T) {
		// The directory spans from the end of the header checksum to the
		// first tile offset minus the directory checksum.
		dirStart := uint64(12+24+4*3) + 4
		dirEnd := tr.Tiles[0].Offset - 4
		for at := dirStart; at < dirEnd; at += 7 {
			bad := append([]byte(nil), raw...)
			bad[at] ^= 0x01
			if _, err := NewTileReader(bytes.NewReader(bad), int64(len(bad))); err == nil {
				t.Fatalf("directory corruption at %d parsed without error", at)
			}
			if _, err := readEvery(t, bad); err == nil {
				t.Fatalf("in-core read accepted directory corruption at %d", at)
			}
		}
	})

	t.Run("truncation", func(t *testing.T) {
		for cut := 0; cut < len(raw); cut += 97 {
			trunc := raw[:cut]
			if _, err := NewTileReader(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
				t.Fatalf("truncation at %d parsed a TileReader without error", cut)
			}
			if _, err := readEvery(t, trunc); err == nil {
				t.Fatalf("in-core read accepted truncation at %d", cut)
			}
		}
		// A reader over a full directory but truncated data errors at
		// ReadTile, not at open, when only ReaderAt size lies.
		last := tr.Tiles[len(tr.Tiles)-1]
		cut := last.Offset + uint64(last.Bytes) - 3
		if _, err := NewTileReader(bytes.NewReader(raw[:cut]), int64(cut)); err == nil {
			t.Fatal("NewTileReader accepted an input shorter than the directory promises")
		}
	})
}

func TestReadTileDirectory(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(16))
	x := RandomCOO([]Index{20, 20, 20}, 300, rng)

	v3 := filepath.Join(dir, "tiled.bten")
	if err := WriteFileTiled(v3, x, 64); err != nil {
		t.Fatal(err)
	}
	tr, ok, err := ReadTileDirectory(v3)
	if err != nil || !ok {
		t.Fatalf("v3 directory: ok=%v err=%v", ok, err)
	}
	if tr.NumTiles() != (x.NNZ()+63)/64 {
		t.Fatalf("directory lists %d tiles", tr.NumTiles())
	}

	// v2 files degrade to "not tiled", not an error.
	v2 := filepath.Join(dir, "flat.bten")
	if err := WriteFile(v2, x); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := ReadTileDirectory(v2); err != nil || ok {
		t.Fatalf("v2 file: ok=%v err=%v, want graceful degrade", ok, err)
	}

	// ReadFileStats reports the tiled format version.
	if _, st, err := ReadFileStats(v3); err != nil || st.Format != "pstb-v3" {
		t.Fatalf("ReadFileStats: format=%q err=%v", st.Format, err)
	}

	if err := WriteFileTiled(filepath.Join(dir, "bad.tns"), x, 64); err == nil ||
		!strings.Contains(err.Error(), ".bten") {
		t.Fatalf("WriteFileTiled accepted a non-.bten path: %v", err)
	}
}

func TestOpenTiledFile(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(17))
	x := RandomCOO([]Index{25, 25, 25}, 500, rng)
	path := filepath.Join(dir, "t.bten")
	if err := WriteFileTiled(path, x, 100); err != nil {
		t.Fatal(err)
	}
	tr, err := OpenTiled(path)
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	var tl Tile
	total := 0
	for i := 0; i < tr.NumTiles(); i++ {
		if err := tr.ReadTile(i, &tl); err != nil {
			t.Fatalf("tile %d: %v", i, err)
		}
		total += tl.NNZ()
	}
	if total != x.NNZ() {
		t.Fatalf("streamed %d entries, want %d", total, x.NNZ())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReadBinaryAllocsConstant pins what a sized read allocates, per
// version and absolutely: the result (the COO, its Inds header, dims,
// one array per column) and, for v3, the directory (meta, entries, one
// array for every box) — 7, 7 and 10 for an order-3 tensor, whatever the
// payload size, chunk count or tile count. The read-ahead buffer is
// pooled, header sections are views into it, labels are values.
func TestReadBinaryAllocsConstant(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rng := rand.New(rand.NewSource(18))
	for _, nnz := range []int{40_000, 400_000} { // one buffer-full and several
		x := RandomCOO([]Index{1 << 12, 1 << 12, 1 << 12}, nnz, rng)
		for _, c := range []struct {
			name  string
			write func(*bytes.Buffer) error
			want  float64
		}{
			{"v1", func(b *bytes.Buffer) error { return writeBinaryV1(b, x) }, 7},
			{"v2", func(b *bytes.Buffer) error { return WriteBinary(b, x) }, 7},
			{"v3/8-tiles", func(b *bytes.Buffer) error { return WriteBinaryTiled(b, x, nnz/8+1) }, 10},
			{"v3/64-tiles", func(b *bytes.Buffer) error { return WriteBinaryTiled(b, x, nnz/64+1) }, 10},
		} {
			var buf bytes.Buffer
			if err := c.write(&buf); err != nil {
				t.Fatal(err)
			}
			raw := buf.Bytes()
			r := bytes.NewReader(raw)
			got := testing.AllocsPerRun(10, func() {
				r.Reset(raw)
				if _, _, err := readBinary(r, int64(len(raw))); err != nil {
					t.Fatal(err)
				}
			})
			if got != c.want {
				t.Errorf("%s, %d non-zeros: %.0f allocations per read, want %.0f", c.name, nnz, got, c.want)
			}
		}
	}
}

// TestReadTileSteadyStateAllocatesNothing: once a Tile's buffers have
// grown to the largest tile, streaming every tile through it allocates
// nothing at all.
func TestReadTileSteadyStateAllocatesNothing(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	rng := rand.New(rand.NewSource(19))
	x := RandomCOO([]Index{1 << 12, 1 << 12, 1 << 12}, 100_000, rng)
	raw := tiledImage(t, x, 7_001) // uneven: the last tile is the short one
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	var tl Tile
	pass := func() {
		for i := 0; i < tr.NumTiles(); i++ {
			if err := tr.ReadTile(i, &tl); err != nil {
				t.Fatal(err)
			}
		}
	}
	pass() // warm the buffers
	if got := testing.AllocsPerRun(10, pass); got != 0 {
		t.Fatalf("a warmed pass over %d tiles allocates %.1f times, want 0", tr.NumTiles(), got)
	}
}

// patchTile overwrites one u32 of a v3 image — column col (order for the
// value column) of entry x of tile i — and re-seals the tile and the
// directory checksums, so the image is valid in form and only its
// content is wrong.
func patchTile(t testing.TB, raw []byte, i, x, col int, bits uint32) []byte {
	t.Helper()
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), raw...)
	order, ti := tr.Order(), tr.Tiles[i]
	binary.LittleEndian.PutUint32(out[int(ti.Offset)+4*(col*int(ti.Count)+x):], bits)
	dirStart := 12 + 24 + 4*order + 4
	dirEnd := dirStart + tr.NumTiles()*tileDirEntryLen(order)
	payload := out[ti.Offset : ti.Offset+uint64(ti.Bytes)]
	binary.LittleEndian.PutUint32(out[dirStart+i*tileDirEntryLen(order)+24:], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(out[dirEnd:], crc32.Checksum(out[dirStart:dirEnd], castagnoli))
	return out
}

// TestReadTileRejectsNonFinite is the regression test for the streamed
// and in-core readers disagreeing: a NaN or an infinity inside a tile
// whose checksum is valid was rejected by ReadBinary and handed to the
// streaming kernels by ReadTile.
func TestReadTileRejectsNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	x := RandomCOO([]Index{30, 30, 30}, 400, rng)
	raw := tiledImage(t, x, 64)
	for _, c := range []struct {
		bits uint32
		text string
	}{
		{0x7FC00000, "NaN"}, {0x7F800000, "+Inf"}, {0xFF800000, "-Inf"},
	} {
		bad := patchTile(t, raw, 3, 17, x.Order(), c.bits)
		tr, err := NewTileReader(bytes.NewReader(bad), int64(len(bad)))
		if err != nil {
			t.Fatal(err)
		}
		var tl Tile
		for i := 0; i < tr.NumTiles(); i++ {
			err := tr.ReadTile(i, &tl)
			want := ""
			if i == 3 {
				want = "tensor: tile 3 entry 17 has non-finite value " + c.text
			}
			if got := errText(err); got != want {
				t.Errorf("%s: ReadTile(%d) = %q, want %q", c.text, i, got, want)
			}
		}
		if _, err := readBinaryAll(bytes.NewReader(bad)); err == nil {
			t.Errorf("%s: in-core read accepted it", c.text)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestTiledFileUnreadable pins the error path when the file vanishes.
func TestTiledFileUnreadable(t *testing.T) {
	if _, err := OpenTiled(filepath.Join(t.TempDir(), "missing.bten")); !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}
