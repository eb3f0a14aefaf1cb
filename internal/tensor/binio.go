package tensor

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"
	"strings"
	"sync"
	"time"
)

// Binary tensor format ("PSTB"): parsing the FROSTT text format dominates
// load time for 100M-non-zero tensors, so the suite also supports a flat
// little-endian binary layout (the same reason ParTI and PASTA ship .bin
// formats). Three versions exist (v3, the tiled layout for out-of-core
// streaming, is specified in tileio.go):
//
// v1 (legacy, read-only):
//
//	magic "PSTB" | u8 1 | u8 order | u32 dims[order] |
//	u64 nnz | u32 inds[order][nnz] | f32 vals[nnz]
//
// v2 (written by WriteBinary) adds section-length fields and CRC32C
// checksums so truncation and corruption are detected instead of
// producing silent wrong data:
//
//	prologue: magic "PSTB" | u8 2 | u8 order | u16 flags=0 | u32 headerLen
//	header  (headerLen = 16+4*order bytes): u64 nnz | u32 dims[order] | u64 payloadLen
//	u32 headerCRC   — CRC32C over prologue+header
//	payload (payloadLen = 4*(order+1)*nnz bytes): u32 inds[order][nnz] | f32 vals[nnz]
//	u32 payloadCRC  — CRC32C over payload
//
// Every reader is bounded-memory: declared sizes are validated against
// the remaining input size when it is known (files, byte readers), and
// the payload arrives through one fixed-size read-ahead buffer
// (binReader), so a truncated or malicious nnz/order field fails fast
// with a descriptive error instead of allocating tens of gigabytes up
// front.
const (
	binMagic    = "PSTB"
	binVersion1 = 1
	binVersion2 = 2
	binVersion3 = 3 // tiled layout, see tileio.go

	// maxBinNNZ is the sanity cap on the declared non-zero count, the
	// last line of defense when the input size is unknown.
	maxBinNNZ = 1 << 33
	// binChunkBytes is the fixed chunk size for payload encode/decode.
	binChunkBytes = 1 << 20
)

// castagnoli is the CRC32C polynomial table (hardware-accelerated on
// amd64/arm64), the checksum v2 uses for header and payload.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteBinary emits the tensor in the PSTB v2 binary format.
func WriteBinary(w io.Writer, t *COO) error {
	order := t.Order()
	if order < 1 || order > 255 {
		return fmt.Errorf("tensor: order %d outside binary format range [1,255]", order)
	}
	nnz := uint64(t.NNZ())
	headerLen := uint32(16 + 4*order)
	payloadLen := uint64(order+1) * 4 * nnz
	scratch, put := acquireScratch(payloadLen)
	defer put()
	bw := bufio.NewWriterSize(w, len(scratch))
	crc := crc32.New(castagnoli)
	hw := io.MultiWriter(bw, crc)

	hdr := make([]byte, 12+headerLen)
	copy(hdr[0:4], binMagic)
	hdr[4] = binVersion2
	hdr[5] = byte(order)
	binary.LittleEndian.PutUint16(hdr[6:8], 0) // flags, reserved
	binary.LittleEndian.PutUint32(hdr[8:12], headerLen)
	binary.LittleEndian.PutUint64(hdr[12:20], nnz)
	for n := 0; n < order; n++ {
		binary.LittleEndian.PutUint32(hdr[20+4*n:], t.Dims[n])
	}
	binary.LittleEndian.PutUint64(hdr[20+4*order:], payloadLen)
	if _, err := hw.Write(hdr); err != nil {
		return err
	}
	if err := writeU32(bw, crc.Sum32()); err != nil {
		return err
	}

	pcrc := crc32.New(castagnoli)
	pw := io.MultiWriter(bw, pcrc)
	for n := range t.Inds {
		if err := writeU32Chunked(pw, t.Inds[n], scratch); err != nil {
			return err
		}
	}
	if err := writeF32Chunked(pw, t.Vals, scratch); err != nil {
		return err
	}
	if err := writeU32(bw, pcrc.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// scratchPool recycles the fixed chunk buffers the chunked encode path
// stages through and the readers read ahead into. Without the pool
// each read (and each write) allocated up to a megabyte of scratch,
// which is pure GC churn on buffers with identical lifetimes. Buffers
// are always full-size; acquireScratch returns a shorter view for small
// payloads so the writers' chunking behavior is unchanged.
var scratchPool = sync.Pool{
	New: func() any {
		b := make([]byte, binChunkBytes)
		return &b
	},
}

// acquireScratch leases a pooled chunk buffer sized for the payload: a
// full chunk for large payloads, a smaller view for small ones (always
// a multiple of 4). The returned put func must be called exactly once
// when the buffer is no longer referenced.
func acquireScratch(payloadBytes uint64) ([]byte, func()) {
	n := uint64(binChunkBytes)
	if payloadBytes < n {
		n = payloadBytes
	}
	if n < 64 {
		n = 64
	}
	p := scratchPool.Get().(*[]byte)
	return (*p)[:n], func() { scratchPool.Put(p) }
}

func writeU32(w io.Writer, v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

func writeU32Chunked(w io.Writer, src []uint32, scratch []byte) error {
	for len(src) > 0 {
		c := len(src)
		if m := len(scratch) / 4; c > m {
			c = m
		}
		b := scratch[:c*4]
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], src[i])
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		src = src[c:]
	}
	return nil
}

func writeF32Chunked(w io.Writer, src []float32, scratch []byte) error {
	for len(src) > 0 {
		c := len(src)
		if m := len(scratch) / 4; c > m {
			c = m
		}
		b := scratch[:c*4]
		for i := 0; i < c; i++ {
			binary.LittleEndian.PutUint32(b[i*4:], math.Float32bits(src[i]))
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
		src = src[c:]
	}
	return nil
}

// readLabel names what a read was for: a value, not a string, because
// a v3 read has one per tile and column and the text is only wanted
// when the read fails.
type readLabel struct {
	ver  byte   // named in the text from v2 on
	name string // a header section's name; "" for a payload column
	tile int    // of a column: the v3 tile, or -1 in a flat payload
	mode int    // of a column: its mode, or -1 for the values
}

func (l readLabel) String() string {
	s := "binary "
	if l.ver > binVersion1 {
		s += fmt.Sprintf("v%d ", l.ver)
	}
	if l.name != "" {
		return s + l.name
	}
	if l.tile >= 0 {
		s += fmt.Sprintf("tile %d ", l.tile)
	}
	if l.mode < 0 {
		return s + "values"
	}
	return s + fmt.Sprintf("mode-%d indices", l.mode)
}

// binReader is the one way PSTB bytes reach a decoder: a pooled
// read-ahead buffer plus the bounded-memory contract's bookkeeping.
// Every declared section length is checked against rem before a byte of
// it is read or allocated, and no fetch goes past what the image has
// declared of itself (ahead), so what follows it in a stream stays unread.
type binReader struct {
	r        io.Reader
	rem      int64 // input bytes not yet handed out, or -1 when unknown
	page     *[]byte
	buf      []byte // buf[pos:end] is fetched and not yet handed out
	pos, end int
	ahead    uint64 // declared bytes not yet fetched
	sum      uint32 // CRC32C of everything handed out since the last checksum
}

// newBinReader leases the buffer; the caller puts b.page back. No image
// is shorter than the 12-byte v2/v3 prologue (v1: 18 bytes), so that
// much is declared from the start.
func newBinReader(r io.Reader, size int64) *binReader {
	page := scratchPool.Get().(*[]byte)
	return &binReader{r: r, rem: size, page: page, buf: *page, ahead: 12}
}

// need verifies that n more bytes can exist in the input.
func (b *binReader) need(n uint64, what readLabel) error {
	if b.rem >= 0 && (n > math.MaxInt64 || int64(n) > b.rem) {
		return fmt.Errorf("tensor: truncated or corrupt input: %s declares %d bytes but only %d remain", what, n, b.rem)
	}
	return nil
}

// declare records that a validated header field promises n more bytes
// of this image, which a later fetch may therefore read ahead into.
func (b *binReader) declare(n uint64, what readLabel) error {
	if err := b.need(n, what); err != nil {
		return err
	}
	if have := uint64(b.end - b.pos); n > have && n-have > b.ahead {
		b.ahead = n - have
	}
	return nil
}

// take hands out the next whole units of the input — at least one, at
// most n bytes (unit divides n and fits the buffer) — as a view into
// the buffer that stays valid until the next take. A fetch reads just
// the missing part of one unit unless more has been declared; a
// shortfall is a descriptive truncation error.
func (b *binReader) take(n uint64, unit int, what readLabel) ([]byte, error) {
	if err := b.need(n, what); err != nil {
		return nil, err
	}
	if have := b.end - b.pos; have < unit {
		copy(b.buf, b.buf[b.pos:b.end])
		lim := max(unit-have, int(min(b.ahead, uint64(len(b.buf)-have))))
		got, err := io.ReadAtLeast(b.r, b.buf[have:have+lim], unit-have)
		b.pos, b.end, b.ahead = 0, have+got, b.ahead-min(b.ahead, uint64(got))
		if err != nil {
			if err == io.EOF && have > 0 {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("tensor: %s: %v", what, err)
		}
	}
	k := int(min(n, uint64(b.end-b.pos)))
	v := b.buf[b.pos : b.pos+k-k%unit]
	b.pos += len(v)
	if b.rem >= 0 {
		b.rem -= int64(len(v))
	}
	b.sum = crc32.Update(b.sum, castagnoli, v)
	return v, nil
}

// checksum reads a stored CRC32C and holds it against the one computed
// over everything handed out since the previous checksum.
func (b *binReader) checksum(what readLabel, corrupt string) error {
	sum := b.sum
	v, err := b.take(4, 4, what)
	if err != nil {
		return err
	}
	b.sum = 0
	if stored := binary.LittleEndian.Uint32(v); stored != sum {
		return fmt.Errorf("tensor: %s mismatch (stored %#08x, computed %#08x): corrupt %s", what, stored, sum, corrupt)
	}
	return nil
}

// magic consumes the 5-byte prefix of an image and returns its version.
func (b *binReader) magic() (byte, error) {
	head, err := b.take(5, 5, readLabel{name: "magic"})
	if err != nil {
		return 0, err
	}
	if string(head[:4]) != binMagic {
		return 0, fmt.Errorf("tensor: bad magic %q, want %q", head[:4], binMagic)
	}
	return head[4], nil
}

func readBinary(r io.Reader, size int64) (*COO, int, error) {
	b := newBinReader(r, size)
	defer scratchPool.Put(b.page)
	ver, err := b.magic()
	if err != nil {
		return nil, 0, err
	}
	var t *COO
	switch ver {
	case binVersion1:
		t, err = readBinaryV1(b)
	case binVersion2:
		t, err = readBinaryV2(b)
	case binVersion3:
		t, err = readBinaryV3(b) // tileio.go
	default:
		err = fmt.Errorf("tensor: unsupported binary version %d", ver)
	}
	return t, int(ver), err
}

// binMeta is the parsed header of an input: the checksummed prologue +
// header v2 and v3 share and, for v3, the tile directory.
type binMeta struct {
	dims          []Index
	nnz           uint64
	payloadLen    uint64
	targetTileNNZ uint32
	tiles         []TileInfo
}

// decodeDims decodes the mode sizes and rejects an empty mode.
func decodeDims(src []byte, order int) ([]Index, error) {
	dims := make([]Index, order)
	decodeU32(dims, src)
	for n, d := range dims {
		if d == 0 {
			return nil, fmt.Errorf("tensor: binary mode %d has zero size", n)
		}
	}
	return dims, nil
}

// readHeader consumes the v2/v3 prologue, header and header checksum
// that follow the magic, and returns v3's tile count (0 for v2). Lengths
// are cross-checked before they are read, fields believed only after
// the checksum holds.
func readHeader(b *binReader, ver byte, m *binMeta) (tileCount uint32, err error) {
	pro, err := b.take(7, 7, readLabel{ver: ver, name: "prologue"})
	if err != nil {
		return 0, err
	}
	order := int(pro[0])
	flags := binary.LittleEndian.Uint16(pro[1:3])
	headerLen := binary.LittleEndian.Uint32(pro[3:7])
	if order == 0 {
		return 0, fmt.Errorf("tensor: binary tensor with zero order")
	}
	if flags != 0 {
		return 0, fmt.Errorf("tensor: binary v%d reserved flags %#x are non-zero", ver, flags)
	}
	want := uint32(16 + 4*order + 8*int(ver-binVersion2)) // v3 adds two u32 fields
	if headerLen != want {
		return 0, fmt.Errorf("tensor: binary v%d header length %d, want %d for order %d", ver, headerLen, want, order)
	}
	what := readLabel{ver: ver, name: "header"}
	if err := b.declare(uint64(headerLen)+4, what); err != nil {
		return 0, err
	}
	hdr, err := b.take(uint64(headerLen), int(headerLen), what)
	if err != nil {
		return 0, err
	}
	m.nnz = binary.LittleEndian.Uint64(hdr[0:8])
	dims, dimErr := decodeDims(hdr[8:], order)
	m.payloadLen = binary.LittleEndian.Uint64(hdr[8+4*order:])
	if ver == binVersion3 {
		tileCount = binary.LittleEndian.Uint32(hdr[16+4*order:])
		m.targetTileNNZ = binary.LittleEndian.Uint32(hdr[20+4*order:])
	}
	if err := b.checksum(readLabel{ver: ver, name: "header checksum"}, "header"); err != nil {
		return 0, err
	}
	if dimErr != nil {
		return 0, dimErr
	}
	m.dims = dims
	if m.nnz > maxBinNNZ {
		return 0, fmt.Errorf("tensor: binary nnz %d exceeds sanity limit", m.nnz)
	}
	if want := uint64(order+1) * 4 * m.nnz; m.payloadLen != want {
		return 0, fmt.Errorf("tensor: binary v%d payload length %d inconsistent with order %d × nnz %d (want %d)", ver, m.payloadLen, order, m.nnz, want)
	}
	return tileCount, nil
}

// result allocates what a read returns: full-size arrays when the input
// size has vouched for nnz, else empty ones that grow with the data
// actually read, so a lying header cannot force a huge allocation.
func (b *binReader) result(dims []Index, nnz uint64) *COO {
	if b.rem < 0 {
		nnz = 0
	}
	t := &COO{Dims: dims, Inds: make([][]Index, len(dims)), Vals: make([]Value, 0, nnz)}
	for n := range t.Inds {
		t.Inds[n] = make([]Index, 0, nnz)
	}
	return t
}

// section decodes one payload section — every index column, then the
// values, cnt entries each — onto t's arrays. ok is what the decoder's
// reductions found: every index inside its dim (and ti's box, for a v3
// tile), every value finite; only a false ok sends the caller to the
// entry-by-entry scan that says which.
func (b *binReader) section(t *COO, cnt uint64, what readLabel, ti *TileInfo) (ok bool, err error) {
	ok = true
	for n := 0; n <= len(t.Inds); n++ {
		if what.mode = n; n == len(t.Inds) {
			what.mode = -1
		}
		for left := cnt; left > 0; {
			v, err := b.take(4*left, 4, what)
			if err != nil {
				return false, err
			}
			k := len(v) / 4
			left -= uint64(k)
			if n == len(t.Inds) {
				at := len(t.Vals)
				t.Vals = slices.Grow(t.Vals, k)[:at+k]
				ok = decodeF32(t.Vals[at:], v) && ok
				continue
			}
			at := len(t.Inds[n])
			t.Inds[n] = slices.Grow(t.Inds[n], k)[:at+k]
			lo, hi := decodeU32(t.Inds[n][at:], v)
			ok = ok && hi < t.Dims[n] && (ti == nil || lo >= ti.BoxLo[n] && hi <= ti.BoxHi[n])
		}
	}
	return ok, nil
}

// contentError is the error path of a read whose reductions failed:
// Validate's entry-by-entry scan names the first offending entry.
func contentError(t *COO) error {
	if err := t.Validate(); err != nil {
		return fmt.Errorf("tensor: binary content invalid: %v", err)
	}
	return nil
}

func readBinaryV1(b *binReader) (*COO, error) {
	ob, err := b.take(1, 1, readLabel{name: "order"})
	if err != nil {
		return nil, err
	}
	order := int(ob[0])
	if order == 0 {
		return nil, fmt.Errorf("tensor: binary tensor with zero order")
	}
	raw, err := b.take(uint64(4*order+8), 4*order+8, readLabel{name: "dims"})
	if err != nil {
		return nil, err
	}
	dims, err := decodeDims(raw, order)
	if err != nil {
		return nil, err
	}
	nnz := binary.LittleEndian.Uint64(raw[4*order:])
	if nnz > maxBinNNZ {
		return nil, fmt.Errorf("tensor: binary nnz %d exceeds sanity limit", nnz)
	}
	return readFlat(b, binVersion1, dims, nnz)
}

func readBinaryV2(b *binReader) (*COO, error) {
	var m binMeta
	if _, err := readHeader(b, binVersion2, &m); err != nil {
		return nil, err
	}
	return readFlat(b, binVersion2, m.dims, m.nnz)
}

// readFlat reads the single payload section of a v1 or v2 image and,
// for v2, the checksum that follows it.
func readFlat(b *binReader, ver byte, dims []Index, nnz uint64) (*COO, error) {
	n := uint64(len(dims)+1) * 4 * nnz
	if ver == binVersion2 {
		n += 4
	}
	if err := b.declare(n, readLabel{ver: ver, name: "payload"}); err != nil {
		return nil, err
	}
	t := b.result(dims, nnz)
	ok, err := b.section(t, nnz, readLabel{tile: -1}, nil)
	if err == nil && ver == binVersion2 {
		err = b.checksum(readLabel{ver: ver, name: "payload checksum"}, "payload")
	}
	if err == nil && !ok {
		err = contentError(t)
	}
	if err != nil {
		return nil, err
	}
	return t, nil
}

// decodeU32 copies len(dst) little-endian u32s out of src and returns
// their minimum and maximum (^0 and 0 when there are none): the copy
// and the range check of a column are one pass.
func decodeU32(dst []Index, src []byte) (lo, hi Index) {
	lo = ^Index(0)
	for src = src[:4*len(dst)]; len(dst) >= 4; src, dst = src[16:], dst[4:] {
		s := src[:16]
		a, b := binary.LittleEndian.Uint32(s), binary.LittleEndian.Uint32(s[4:])
		c, d := binary.LittleEndian.Uint32(s[8:]), binary.LittleEndian.Uint32(s[12:])
		dst[0], dst[1], dst[2], dst[3] = a, b, c, d
		lo, hi = min(lo, min(a, b), min(c, d)), max(hi, max(a, b), max(c, d))
	}
	for i := range dst {
		v := binary.LittleEndian.Uint32(src[4*i:])
		dst[i] = v
		lo, hi = min(lo, v), max(hi, v)
	}
	return lo, hi
}

// f32NonFinite is the smallest float32 bit pattern, shifted left by one
// to drop the sign, whose exponent is all ones: a NaN or an infinity.
const f32NonFinite = 0xFF000000

// decodeF32 copies len(dst) little-endian f32s out of src and reports
// whether all are finite, from the maximum of their sign-less patterns.
func decodeF32(dst []Value, src []byte) (finite bool) {
	var top uint32
	for src = src[:4*len(dst)]; len(dst) >= 4; src, dst = src[16:], dst[4:] {
		s := src[:16]
		a, b := binary.LittleEndian.Uint32(s), binary.LittleEndian.Uint32(s[4:])
		c, d := binary.LittleEndian.Uint32(s[8:]), binary.LittleEndian.Uint32(s[12:])
		dst[0], dst[1] = math.Float32frombits(a), math.Float32frombits(b)
		dst[2], dst[3] = math.Float32frombits(c), math.Float32frombits(d)
		top = max(top, max(a<<1, b<<1), max(c<<1, d<<1))
	}
	for i := range dst {
		v := binary.LittleEndian.Uint32(src[4*i:])
		dst[i] = math.Float32frombits(v)
		top = max(top, v<<1)
	}
	return top < f32NonFinite
}

// inputSize reports how many bytes remain in r, or -1 when that cannot
// be determined without consuming the stream.
func inputSize(r io.Reader) int64 {
	if l, ok := r.(interface{ Len() int }); ok {
		return int64(l.Len())
	}
	if f, ok := r.(*os.File); ok {
		fi, err := f.Stat()
		if err != nil || !fi.Mode().IsRegular() {
			return -1
		}
		pos, err := f.Seek(0, io.SeekCurrent)
		if err != nil || pos > fi.Size() {
			return -1
		}
		return fi.Size() - pos
	}
	if s, ok := r.(io.Seeker); ok {
		cur, err := s.Seek(0, io.SeekCurrent)
		if err != nil {
			return -1
		}
		end, err := s.Seek(0, io.SeekEnd)
		if err != nil {
			return -1
		}
		if _, err := s.Seek(cur, io.SeekStart); err != nil || end < cur {
			return -1
		}
		return end - cur
	}
	return -1
}

// ReadFile loads a tensor by extension: ".bten" (PSTB binary, any
// version — v3 tiled files are assembled in-core; use OpenTiled to
// stream them), ".tns", or ".tns.gz" (FROSTT text, optionally
// gzipped). Other extensions are rejected.
func ReadFile(path string) (*COO, error) {
	t, _, err := ReadFileStats(path)
	return t, err
}

// ReadFileStats is ReadFile plus load-throughput measurement: on-disk
// bytes, detected format, and elapsed wall time.
func ReadFileStats(path string) (*COO, LoadStats, error) {
	st := LoadStats{Path: path}
	start := time.Now()
	var t *COO
	switch {
	case strings.HasSuffix(path, ".bten"):
		f, err := os.Open(path)
		if err != nil {
			return nil, st, err
		}
		defer f.Close()
		size := inputSize(f)
		st.Bytes = size
		var ver int
		t, ver, err = readBinary(f, size)
		if err != nil {
			return nil, st, fmt.Errorf("%s: %v", path, err)
		}
		st.Format = fmt.Sprintf("pstb-v%d", ver)
	case strings.HasSuffix(path, ".tns.gz"):
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, st, err
		}
		st.Bytes = int64(len(data))
		st.Format = "tns.gz"
		gz, err := gzip.NewReader(bytes.NewReader(data))
		if err != nil {
			return nil, st, fmt.Errorf("tns: %s: %v", path, err)
		}
		text, err := io.ReadAll(gz)
		if err != nil {
			return nil, st, fmt.Errorf("tns: %s: %v", path, err)
		}
		if t, err = ParseTNS(text); err != nil {
			return nil, st, fmt.Errorf("%s: %v", path, err)
		}
	case strings.HasSuffix(path, ".tns"):
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, st, err
		}
		st.Bytes = int64(len(data))
		st.Format = "tns"
		if t, err = ParseTNS(data); err != nil {
			return nil, st, fmt.Errorf("%s: %v", path, err)
		}
	default:
		return nil, st, fmt.Errorf("tensor: %s: unsupported extension (want .bten, .tns, or .tns.gz)", path)
	}
	st.Elapsed = time.Since(start)
	st.Order = t.Order()
	st.NNZ = t.NNZ()
	return t, st, nil
}

// WriteFile stores a tensor by extension, mirroring ReadFile; ".bten"
// output uses PSTB v2.
func WriteFile(path string, t *COO) error {
	switch {
	case strings.HasSuffix(path, ".bten"):
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := WriteBinary(f, t); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	case strings.HasSuffix(path, ".tns"), strings.HasSuffix(path, ".tns.gz"):
		return WriteTNSFile(path, t)
	}
	return fmt.Errorf("tensor: %s: unsupported extension (want .bten, .tns, or .tns.gz)", path)
}
