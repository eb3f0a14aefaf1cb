package tensor

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// PSTB v3: the tiled layout for out-of-core streaming. A v3 file is a
// v2 file whose payload has been split into independently checksummed
// tiles — contiguous non-zero ranges of the naturally sorted tensor —
// described by a directory placed before the data, so a reader can
// fetch any tile with one ReadAt and never materialize the full COO:
//
//	prologue: magic "PSTB" | u8 3 | u8 order | u16 flags=0 | u32 headerLen
//	header  (headerLen = 24+4*order bytes):
//	        u64 nnz | u32 dims[order] | u64 payloadLen |
//	        u32 tileCount | u32 targetTileNNZ
//	u32 headerCRC — CRC32C over prologue+header
//	directory (tileCount entries × (28+8*order) bytes):
//	        u64 start | u32 count | u64 offset | u32 length | u32 tileCRC |
//	        u32 boxLo[order] | u32 boxHi[order]
//	u32 dirCRC — CRC32C over the directory bytes
//	tile payloads, contiguous and in directory order
//	        (each: u32 inds[order][count] | f32 vals[count])
//
// start is the tile's first non-zero position in the sorted tensor,
// offset is the absolute file offset of its payload, and boxLo/boxHi
// are the inclusive per-mode coordinate bounds of the tile's entries
// (the sentinel lo=0xFFFFFFFF, hi=0 marks an empty tile). Tiles
// partition the non-zeros in order: a sequential read of every tile
// reconstructs exactly the v2 payload of the sorted tensor.
const (
	// DefaultTileNNZ is the writer's default non-zeros per tile: with
	// an order-3 tensor this is a 4 MiB tile, large enough to amortize
	// per-tile overheads and small enough that a double-buffered
	// streaming budget stays in tens of megabytes.
	DefaultTileNNZ = 1 << 18

	// maxBinTiles is the sanity cap on the declared tile count, the
	// directory analog of maxBinNNZ.
	maxBinTiles = 1 << 24

	// emptyBoxLo is the boxLo sentinel of a tile with no entries.
	emptyBoxLo = ^Index(0)
)

// TileInfo is one directory entry of a PSTB v3 file.
type TileInfo struct {
	// Start is the tile's first non-zero position in the sorted tensor.
	Start uint64
	// Count is the number of non-zeros stored in the tile.
	Count uint32
	// Offset is the absolute file offset of the tile payload.
	Offset uint64
	// Bytes is the payload length: 4*(order+1)*Count.
	Bytes uint32
	// CRC is the CRC32C of the tile payload.
	CRC uint32
	// BoxLo and BoxHi are the inclusive per-mode coordinate bounds of
	// the tile's entries; an empty tile carries BoxLo=0xFFFFFFFF,
	// BoxHi=0 (lo > hi, an impossible box).
	BoxLo, BoxHi []Index
}

// Empty reports whether the tile holds no entries.
func (ti *TileInfo) Empty() bool { return ti.Count == 0 }

// tileDirEntryLen is the encoded size of one directory entry.
func tileDirEntryLen(order int) int { return 28 + 8*order }

// WriteBinaryTiled emits the tensor in the PSTB v3 tiled format with
// at most tileNNZ non-zeros per tile (tileNNZ <= 0 selects
// DefaultTileNNZ). The payload is written in natural sort order — from
// a sorted copy if t's data is not already in it — so tiles are
// coordinate-contiguous ranges with tight bounding boxes.
func WriteBinaryTiled(w io.Writer, t *COO, tileNNZ int) error {
	if tileNNZ <= 0 {
		tileNNZ = DefaultTileNNZ
	}
	nnz := uint64(t.NNZ())
	bounds := make([]uint64, 0, nnz/uint64(tileNNZ)+2)
	for at := uint64(0); at < nnz; at += uint64(tileNNZ) {
		bounds = append(bounds, at)
	}
	bounds = append(bounds, nnz)
	return writeBinaryTiled(w, t, uint32(tileNNZ), bounds)
}

// WriteFileTiled stores t at path (which must end in .bten) in the
// PSTB v3 tiled layout.
func WriteFileTiled(path string, t *COO, tileNNZ int) error {
	if !strings.HasSuffix(path, ".bten") {
		return fmt.Errorf("tensor: %s: tiled output requires a .bten path", path)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteBinaryTiled(f, t, tileNNZ); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeBinaryTiled writes the v3 layout with explicit tile bounds:
// bounds[i]..bounds[i+1] is tile i's non-zero range (bounds must start
// at 0, end at nnz, and be non-decreasing — equal neighbors produce an
// empty tile, which the format permits and the reader tolerates).
func writeBinaryTiled(w io.Writer, t *COO, targetTileNNZ uint32, bounds []uint64) error {
	order := t.Order()
	if order < 1 || order > 255 {
		return fmt.Errorf("tensor: order %d outside binary format range [1,255]", order)
	}
	nnz := uint64(t.NNZ())
	if len(bounds) < 1 || bounds[0] != 0 || bounds[len(bounds)-1] != nnz {
		return fmt.Errorf("tensor: tile bounds must span [0,%d]", nnz)
	}
	tiles := len(bounds) - 1
	if tiles > maxBinTiles {
		return fmt.Errorf("tensor: %d tiles exceeds sanity limit", tiles)
	}
	xs := t.SortedBy(OtherModes(order, -1))

	scratch, put := acquireScratch(uint64(order+1) * 4 * nnz)
	defer put()
	bw := bufio.NewWriterSize(w, len(scratch))

	headerLen := uint32(24 + 4*order)
	payloadLen := uint64(order+1) * 4 * nnz
	dirLen := tiles * tileDirEntryLen(order)
	dataStart := uint64(12) + uint64(headerLen) + 4 + uint64(dirLen) + 4

	// Prologue + header, checksummed together like v2.
	hdr := make([]byte, 12+headerLen)
	copy(hdr[0:4], binMagic)
	hdr[4] = binVersion3
	hdr[5] = byte(order)
	binary.LittleEndian.PutUint16(hdr[6:8], 0) // flags, reserved
	binary.LittleEndian.PutUint32(hdr[8:12], headerLen)
	binary.LittleEndian.PutUint64(hdr[12:20], nnz)
	for n := 0; n < order; n++ {
		binary.LittleEndian.PutUint32(hdr[20+4*n:], xs.Dims[n])
	}
	binary.LittleEndian.PutUint64(hdr[20+4*order:], payloadLen)
	binary.LittleEndian.PutUint32(hdr[28+4*order:], uint32(tiles))
	binary.LittleEndian.PutUint32(hdr[32+4*order:], targetTileNNZ)
	if _, err := bw.Write(hdr); err != nil {
		return err
	}
	if err := writeU32(bw, crc32.Checksum(hdr, castagnoli)); err != nil {
		return err
	}

	// Directory. Per-tile payload CRCs are computed in a first pass
	// over the data (encode-to-scratch without writing), so the writer
	// never buffers a tile, let alone the payload.
	dir := make([]byte, dirLen)
	off := dataStart
	for i := 0; i < tiles; i++ {
		lo, hi := bounds[i], bounds[i+1]
		if hi < lo {
			return fmt.Errorf("tensor: tile %d bounds [%d,%d) are inverted", i, lo, hi)
		}
		cnt := hi - lo
		length := uint64(order+1) * 4 * cnt
		if cnt > math.MaxUint32 || length > math.MaxUint32 {
			return fmt.Errorf("tensor: tile %d holds %d non-zeros, exceeding the per-tile limit", i, cnt)
		}
		crc := crc32.New(castagnoli)
		for n := 0; n < order; n++ {
			if err := writeU32Chunked(crc, xs.Inds[n][lo:hi], scratch); err != nil {
				return err
			}
		}
		if err := writeF32Chunked(crc, xs.Vals[lo:hi], scratch); err != nil {
			return err
		}
		e := dir[i*tileDirEntryLen(order):]
		binary.LittleEndian.PutUint64(e[0:8], lo)
		binary.LittleEndian.PutUint32(e[8:12], uint32(cnt))
		binary.LittleEndian.PutUint64(e[12:20], off)
		binary.LittleEndian.PutUint32(e[20:24], uint32(length))
		binary.LittleEndian.PutUint32(e[24:28], crc.Sum32())
		for n := 0; n < order; n++ {
			boxLo, boxHi := emptyBoxLo, Index(0)
			if cnt > 0 {
				// Natural order sorts mode 0 outermost, so its bounds are
				// the range endpoints; inner modes need the scan.
				ind := xs.Inds[n][lo:hi]
				if n == 0 {
					boxLo, boxHi = ind[0], ind[cnt-1]
				} else {
					boxLo, boxHi = ind[0], ind[0]
					for _, ix := range ind[1:] {
						if ix < boxLo {
							boxLo = ix
						}
						if ix > boxHi {
							boxHi = ix
						}
					}
				}
			}
			binary.LittleEndian.PutUint32(e[28+4*n:], boxLo)
			binary.LittleEndian.PutUint32(e[28+4*order+4*n:], boxHi)
		}
		off += length
	}
	if _, err := bw.Write(dir); err != nil {
		return err
	}
	if err := writeU32(bw, crc32.Checksum(dir, castagnoli)); err != nil {
		return err
	}

	// Tile payloads, second pass.
	for i := 0; i < tiles; i++ {
		lo, hi := bounds[i], bounds[i+1]
		for n := 0; n < order; n++ {
			if err := writeU32Chunked(bw, xs.Inds[n][lo:hi], scratch); err != nil {
				return err
			}
		}
		if err := writeF32Chunked(bw, xs.Vals[lo:hi], scratch); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseTiledHeader consumes the v3 header and directory from b, which
// must be positioned just past the 5-byte magic+version prefix. Every
// declared size is validated against the remaining input before
// allocation, and both section checksums are verified.
func parseTiledHeader(b *binReader) (*binMeta, error) {
	m := &binMeta{}
	tileCount, err := readHeader(b, binVersion3, m)
	if err != nil {
		return nil, err
	}
	if tileCount > maxBinTiles {
		return nil, fmt.Errorf("tensor: binary v3 tile count %d exceeds sanity limit", tileCount)
	}
	order := len(m.dims)
	entryLen := tileDirEntryLen(order)
	dirLen := uint64(tileCount) * uint64(entryLen)
	what := readLabel{ver: 3, name: "tile directory"}
	if err := b.declare(dirLen+4, what); err != nil {
		return nil, err
	}
	// Entries are collected as they arrive, preallocated only when the
	// input size vouches for tileCount: on a stream a lying count fails
	// at the first short read, not after a gigabyte allocation. All
	// boxes share one backing array.
	var boxes []Index
	if b.rem >= 0 {
		m.tiles = make([]TileInfo, 0, tileCount)
		boxes = make([]Index, 0, 2*order*int(tileCount))
	}
	for left := dirLen; left > 0; {
		v, err := b.take(left, entryLen, what)
		if err != nil {
			return nil, err
		}
		left -= uint64(len(v))
		for ; len(v) > 0; v = v[entryLen:] {
			m.tiles = append(m.tiles, TileInfo{
				Start:  binary.LittleEndian.Uint64(v[0:8]),
				Count:  binary.LittleEndian.Uint32(v[8:12]),
				Offset: binary.LittleEndian.Uint64(v[12:20]),
				Bytes:  binary.LittleEndian.Uint32(v[20:24]),
				CRC:    binary.LittleEndian.Uint32(v[24:28]),
			})
			boxes = slices.Grow(boxes, 2*order)[:len(boxes)+2*order]
			decodeU32(boxes[len(boxes)-2*order:], v[28:])
		}
	}
	if err := b.checksum(readLabel{ver: 3, name: "directory checksum"}, "tile directory"); err != nil {
		return nil, err
	}

	pos, at := 12+uint64(24+4*order)+4+dirLen+4, uint64(0) // where the first tile starts
	for i := range m.tiles {
		ti := &m.tiles[i]
		box := boxes[2*order*i : 2*order*(i+1) : 2*order*(i+1)]
		ti.BoxLo, ti.BoxHi = box[:order:order], box[order:]
		if ti.Start != at {
			return nil, fmt.Errorf("tensor: binary v3 tile %d starts at non-zero %d, want %d: directory does not partition the payload", i, ti.Start, at)
		}
		if want := uint64(order+1) * 4 * uint64(ti.Count); uint64(ti.Bytes) != want {
			return nil, fmt.Errorf("tensor: binary v3 tile %d length %d inconsistent with count %d (want %d)", i, ti.Bytes, ti.Count, want)
		}
		if ti.Offset != pos {
			return nil, fmt.Errorf("tensor: binary v3 tile %d at offset %d, want %d: tiles must be contiguous", i, ti.Offset, pos)
		}
		pos += uint64(ti.Bytes)
		at += uint64(ti.Count)
	}
	if at != m.nnz {
		return nil, fmt.Errorf("tensor: binary v3 directory covers %d non-zeros, header declares %d", at, m.nnz)
	}
	return m, nil
}

// Tile is a reusable decode buffer for one tile's entries. The zero
// value is ready to use; passing the same Tile to successive ReadTile
// calls reuses its allocations, so a steady-state streaming loop stops
// allocating once the buffers have grown to the largest tile.
type Tile struct {
	// Inds holds one index slice per mode, each Count entries long.
	Inds [][]Index
	// Vals holds the tile's values, parallel to Inds.
	Vals []Value
	raw  []byte
}

// NNZ returns the number of entries currently decoded into the tile.
func (tl *Tile) NNZ() int { return len(tl.Vals) }

// TileReader reads a PSTB v3 file tile-at-a-time through an
// io.ReaderAt, holding only the directory in memory. It is safe for
// concurrent ReadTile calls with distinct Tile buffers.
type TileReader struct {
	// Dims holds the tensor's mode sizes.
	Dims []Index
	// NNZ is the total non-zero count across all tiles.
	NNZ uint64
	// TargetTileNNZ echoes the writer's tile-size setting.
	TargetTileNNZ uint32
	// Tiles is the parsed tile directory.
	Tiles []TileInfo

	r      io.ReaderAt
	closer io.Closer
}

// OpenTiled opens a v3 .bten file for tile-at-a-time reading. The
// caller owns the reader and must Close it.
func OpenTiled(path string) (*TileReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	tr, err := NewTileReader(f, fi.Size())
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("%s: %v", path, err)
	}
	tr.closer = f
	return tr, nil
}

// NewTileReader parses the v3 header and directory from r (size is the
// total input length) and returns a reader positioned to serve tiles.
func NewTileReader(r io.ReaderAt, size int64) (*TileReader, error) {
	b := newBinReader(io.NewSectionReader(r, 0, size), size)
	defer scratchPool.Put(b.page)
	ver, err := b.magic()
	if err != nil {
		return nil, err
	}
	if ver != binVersion3 {
		return nil, fmt.Errorf("tensor: binary version %d is not tiled (want v3; rewrite with WriteBinaryTiled)", ver)
	}
	m, err := parseTiledHeader(b)
	if err != nil {
		return nil, err
	}
	for i := range m.tiles {
		ti := &m.tiles[i]
		if end := ti.Offset + uint64(ti.Bytes); end > uint64(size) {
			return nil, fmt.Errorf("tensor: binary v3 tile %d extends to byte %d past input size %d: truncated input", i, end, size)
		}
	}
	return &TileReader{
		Dims:          m.dims,
		NNZ:           m.nnz,
		TargetTileNNZ: m.targetTileNNZ,
		Tiles:         m.tiles,
		r:             r,
	}, nil
}

// Close releases the underlying file when the reader owns one.
func (tr *TileReader) Close() error {
	if tr.closer != nil {
		return tr.closer.Close()
	}
	return nil
}

// Order returns the tensor order.
func (tr *TileReader) Order() int { return len(tr.Dims) }

// NumTiles returns the tile count.
func (tr *TileReader) NumTiles() int { return len(tr.Tiles) }

// MaxTileBytes returns the decoded size of the largest tile — the
// minimum budget a streaming executor needs to hold one tile resident.
func (tr *TileReader) MaxTileBytes() int64 {
	var max int64
	for i := range tr.Tiles {
		if b := int64(tr.Tiles[i].Bytes); b > max {
			max = b
		}
	}
	return max
}

// ReadTile fetches and decodes tile i into tl, reusing tl's buffers.
// The payload checksum is verified and every index is checked against
// the tensor dims and the directory bounding box, so corruption
// surfaces as an error here rather than an out-of-range panic inside a
// kernel.
func (tr *TileReader) ReadTile(i int, tl *Tile) error {
	if i < 0 || i >= len(tr.Tiles) {
		return fmt.Errorf("tensor: tile %d out of range [0,%d)", i, len(tr.Tiles))
	}
	ti := &tr.Tiles[i]
	order := tr.Order()
	tl.raw = slices.Grow(tl.raw[:0], int(ti.Bytes))[:ti.Bytes]
	raw := tl.raw
	if ti.Bytes > 0 {
		if _, err := tr.r.ReadAt(raw, int64(ti.Offset)); err != nil {
			return fmt.Errorf("tensor: tile %d read: %v", i, err)
		}
	}
	if sum := crc32.Checksum(raw, castagnoli); sum != ti.CRC {
		return fmt.Errorf("tensor: tile %d checksum mismatch (stored %#08x, computed %#08x): corrupt tile", i, ti.CRC, sum)
	}
	cnt := int(ti.Count)
	tl.Inds = slices.Grow(tl.Inds[:0], order)[:order]
	ok := true
	for n := range tl.Inds {
		tl.Inds[n] = slices.Grow(tl.Inds[n][:0], cnt)[:cnt]
		lo, hi := decodeU32(tl.Inds[n], raw[4*n*cnt:])
		ok = ok && hi < tr.Dims[n] && lo >= ti.BoxLo[n] && hi <= ti.BoxHi[n]
	}
	tl.Vals = slices.Grow(tl.Vals[:0], cnt)[:cnt]
	if finite := decodeF32(tl.Vals, raw[4*order*cnt:]); !ok || !finite {
		return explainTile(i, ti, tr.Dims, tl.Inds, tl.Vals, 0)
	}
	return nil
}

// explainTile is the error path of a tile whose reductions failed: the
// scan of its entries (from position at of the arrays) names the first
// index outside its dim or directory box, else the first non-finite value.
func explainTile(i int, ti *TileInfo, dims []Index, inds [][]Index, vals []Value, at int) error {
	for n, ind := range inds {
		for x, ix := range ind[at : at+int(ti.Count)] {
			if ix >= dims[n] {
				return fmt.Errorf("tensor: tile %d entry %d mode %d index %d outside dim %d: corrupt tile", i, x, n, ix, dims[n])
			}
			if ix < ti.BoxLo[n] || ix > ti.BoxHi[n] {
				return fmt.Errorf("tensor: tile %d entry %d mode %d index %d outside directory box [%d,%d]", i, x, n, ix, ti.BoxLo[n], ti.BoxHi[n])
			}
		}
	}
	for x, v := range vals[at : at+int(ti.Count)] {
		if math.Float32bits(v)<<1 >= f32NonFinite {
			return fmt.Errorf("tensor: tile %d entry %d has non-finite value %v", i, x, v)
		}
	}
	return nil
}

// readBinaryV3 is the in-core v3 path readBinary (under ReadFile) takes:
// the whole tiled payload is assembled into one COO, every checksum
// verified, accepting exactly the images a TileReader streams without
// error. Streaming consumers use TileReader instead.
func readBinaryV3(b *binReader) (*COO, error) {
	m, err := parseTiledHeader(b)
	if err != nil {
		return nil, err
	}
	if err := b.declare(m.payloadLen, readLabel{ver: 3, name: "payload"}); err != nil {
		return nil, err
	}
	t := b.result(m.dims, m.nnz)
	ok := true
	for i := range m.tiles {
		ti := &m.tiles[i]
		tileOK, err := b.section(t, uint64(ti.Count), readLabel{ver: 3, tile: i}, ti)
		if err != nil {
			return nil, err
		}
		if b.sum != ti.CRC {
			return nil, fmt.Errorf("tensor: tile %d checksum mismatch (stored %#08x, computed %#08x): corrupt tile", i, ti.CRC, b.sum)
		}
		b.sum = 0
		ok = ok && tileOK
	}
	if !ok {
		if err := contentError(t); err != nil {
			return nil, err
		}
		// In range and finite, so an index left its tile's box.
		for i := range m.tiles {
			if err := explainTile(i, &m.tiles[i], t.Dims, t.Inds, t.Vals, int(m.tiles[i].Start)); err != nil {
				return nil, err
			}
		}
	}
	return t, nil
}

// ReadTileDirectory parses only the header and tile directory of a v3
// .bten file — what pastainfo prints — without touching the payload.
// v1/v2 files return a nil directory and ok=false rather than an
// error, so callers degrade gracefully on untiled inputs.
func ReadTileDirectory(path string) (*TileReader, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, false, err
	}
	defer f.Close()
	var head [5]byte
	if _, err := io.ReadFull(f, head[:]); err != nil {
		return nil, false, fmt.Errorf("tensor: %s: %v", path, err)
	}
	if string(head[:4]) != binMagic || head[4] != binVersion3 {
		return nil, false, nil
	}
	fi, err := f.Stat()
	if err != nil {
		return nil, false, err
	}
	tr, err := NewTileReader(f, fi.Size())
	if err != nil {
		return nil, false, fmt.Errorf("%s: %v", path, err)
	}
	tr.r = nil // the file closes with this call; only the directory survives
	return tr, true, nil
}
