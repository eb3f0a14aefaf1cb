package tensor

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
	"math"
	"os"
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
// Both readers are bounded-memory: declared sizes are validated against
// the remaining input size when it is known (files, byte readers), and
// the payload is read in fixed-size chunks, so a truncated or malicious
// nnz/order field fails fast with a descriptive error instead of
// allocating tens of gigabytes up front.
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

// scratchPool recycles the fixed chunk buffers the chunked encode and
// decode paths stage through. A streaming consumer reads thousands of
// tiles per run; without the pool each read (and each write) allocated
// up to a megabyte of scratch, which is pure GC churn on buffers with
// identical lifetimes. Buffers are always full-size; acquireScratch
// returns a shorter view for small payloads so the chunking behavior
// is unchanged.
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

// ReadBinary parses either PSTB binary version. The remaining input size
// is auto-detected when r exposes it (os.File, bytes.Reader/Buffer, any
// io.Seeker); use ReadBinarySized to supply it for plain streams.
func ReadBinary(r io.Reader) (*COO, error) {
	t, _, err := readBinary(r, inputSize(r))
	return t, err
}

// ReadBinarySized parses a PSTB stream whose remaining length is known
// to be size bytes, letting the reader reject oversized nnz/order/dims
// declarations before allocating anything. size < 0 means unknown.
func ReadBinarySized(r io.Reader, size int64) (*COO, error) {
	t, _, err := readBinary(r, size)
	return t, err
}

// binReader wraps a reader with the remaining-size bookkeeping the
// bounded-memory contract needs: every declared section length is
// checked against rem before a single byte of it is read or allocated.
type binReader struct {
	r   io.Reader
	rem int64 // remaining input bytes, or -1 when unknown
}

// need verifies that n more bytes can exist in the input.
func (b *binReader) need(n uint64, what string) error {
	if b.rem >= 0 && (n > math.MaxInt64 || int64(n) > b.rem) {
		return fmt.Errorf("tensor: truncated or corrupt input: %s declares %d bytes but only %d remain", what, n, b.rem)
	}
	return nil
}

// full reads exactly len(p) bytes, mapping any shortfall to a
// descriptive truncation error.
func (b *binReader) full(p []byte, what string) error {
	if err := b.need(uint64(len(p)), what); err != nil {
		return err
	}
	if _, err := io.ReadFull(b.r, p); err != nil {
		return fmt.Errorf("tensor: %s: %v", what, err)
	}
	if b.rem >= 0 {
		b.rem -= int64(len(p))
	}
	return nil
}

func readBinary(r io.Reader, size int64) (*COO, int, error) {
	// No bufio wrapper: every read below is a bulk io.ReadFull, and the
	// corrupt-input sweeps parse tiny images by the tens of thousands —
	// a megabyte of buffer per call would be pure churn.
	b := &binReader{r: r, rem: size}
	head := make([]byte, 5)
	if err := b.full(head, "binary magic"); err != nil {
		return nil, 0, err
	}
	if string(head[:4]) != binMagic {
		return nil, 0, fmt.Errorf("tensor: bad magic %q, want %q", head[:4], binMagic)
	}
	switch head[4] {
	case binVersion1:
		t, err := readBinaryV1(b)
		return t, binVersion1, err
	case binVersion2:
		t, err := readBinaryV2(b)
		return t, binVersion2, err
	case binVersion3:
		t, err := readBinaryV3(b)
		return t, binVersion3, err
	}
	return nil, 0, fmt.Errorf("tensor: unsupported binary version %d", head[4])
}

func readBinaryV1(b *binReader) (*COO, error) {
	var orderB [1]byte
	if err := b.full(orderB[:], "binary order"); err != nil {
		return nil, err
	}
	order := int(orderB[0])
	if order == 0 {
		return nil, fmt.Errorf("tensor: binary tensor with zero order")
	}
	dimsRaw := make([]byte, 4*order+8)
	if err := b.full(dimsRaw, "binary dims"); err != nil {
		return nil, err
	}
	dims := make([]Index, order)
	for n := range dims {
		dims[n] = binary.LittleEndian.Uint32(dimsRaw[4*n:])
		if dims[n] == 0 {
			return nil, fmt.Errorf("tensor: binary mode %d has zero size", n)
		}
	}
	nnz := binary.LittleEndian.Uint64(dimsRaw[4*order:])
	if nnz > maxBinNNZ {
		return nil, fmt.Errorf("tensor: binary nnz %d exceeds sanity limit", nnz)
	}
	payloadLen := uint64(order+1) * 4 * nnz
	if err := b.need(payloadLen, "binary payload"); err != nil {
		return nil, err
	}
	t := &COO{Dims: dims, Inds: make([][]Index, order)}
	scratch, put := acquireScratch(payloadLen)
	defer put()
	prealloc := b.rem >= 0
	for n := 0; n < order; n++ {
		ind, err := readU32Chunked(b, nnz, prealloc, nil, scratch, fmt.Sprintf("binary mode-%d indices", n))
		if err != nil {
			return nil, err
		}
		t.Inds[n] = ind
	}
	vals, err := readF32Chunked(b, nnz, prealloc, nil, scratch, "binary values")
	if err != nil {
		return nil, err
	}
	t.Vals = vals
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tensor: binary content invalid: %v", err)
	}
	return t, nil
}

func readBinaryV2(b *binReader) (*COO, error) {
	crc := crc32.New(castagnoli)
	crc.Write([]byte{'P', 'S', 'T', 'B', binVersion2}) // already consumed by dispatch
	pro := make([]byte, 7)
	if err := b.full(pro, "binary v2 prologue"); err != nil {
		return nil, err
	}
	crc.Write(pro)
	order := int(pro[0])
	flags := binary.LittleEndian.Uint16(pro[1:3])
	headerLen := binary.LittleEndian.Uint32(pro[3:7])
	if order == 0 {
		return nil, fmt.Errorf("tensor: binary tensor with zero order")
	}
	if flags != 0 {
		return nil, fmt.Errorf("tensor: binary v2 reserved flags %#x are non-zero", flags)
	}
	if want := uint32(16 + 4*order); headerLen != want {
		return nil, fmt.Errorf("tensor: binary v2 header length %d, want %d for order %d", headerLen, want, order)
	}
	hdr := make([]byte, headerLen)
	if err := b.full(hdr, "binary v2 header"); err != nil {
		return nil, err
	}
	crc.Write(hdr)
	var got [4]byte
	if err := b.full(got[:], "binary v2 header checksum"); err != nil {
		return nil, err
	}
	if sum := binary.LittleEndian.Uint32(got[:]); sum != crc.Sum32() {
		return nil, fmt.Errorf("tensor: binary v2 header checksum mismatch (stored %#08x, computed %#08x): corrupt header", sum, crc.Sum32())
	}

	nnz := binary.LittleEndian.Uint64(hdr[0:8])
	dims := make([]Index, order)
	for n := range dims {
		dims[n] = binary.LittleEndian.Uint32(hdr[8+4*n:])
		if dims[n] == 0 {
			return nil, fmt.Errorf("tensor: binary mode %d has zero size", n)
		}
	}
	payloadLen := binary.LittleEndian.Uint64(hdr[8+4*order:])
	if nnz > maxBinNNZ {
		return nil, fmt.Errorf("tensor: binary nnz %d exceeds sanity limit", nnz)
	}
	if want := uint64(order+1) * 4 * nnz; payloadLen != want {
		return nil, fmt.Errorf("tensor: binary v2 payload length %d inconsistent with order %d × nnz %d (want %d)", payloadLen, order, nnz, want)
	}
	if err := b.need(payloadLen+4, "binary v2 payload"); err != nil {
		return nil, err
	}

	pcrc := crc32.New(castagnoli)
	t := &COO{Dims: dims, Inds: make([][]Index, order)}
	scratch, put := acquireScratch(payloadLen)
	defer put()
	prealloc := b.rem >= 0
	for n := 0; n < order; n++ {
		ind, err := readU32Chunked(b, nnz, prealloc, pcrc, scratch, fmt.Sprintf("binary mode-%d indices", n))
		if err != nil {
			return nil, err
		}
		t.Inds[n] = ind
	}
	vals, err := readF32Chunked(b, nnz, prealloc, pcrc, scratch, "binary values")
	if err != nil {
		return nil, err
	}
	t.Vals = vals
	if err := b.full(got[:], "binary v2 payload checksum"); err != nil {
		return nil, err
	}
	if sum := binary.LittleEndian.Uint32(got[:]); sum != pcrc.Sum32() {
		return nil, fmt.Errorf("tensor: binary v2 payload checksum mismatch (stored %#08x, computed %#08x): corrupt payload", sum, pcrc.Sum32())
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("tensor: binary content invalid: %v", err)
	}
	return t, nil
}

// readU32Chunked reads n little-endian u32s in fixed-size chunks. When
// the input size was pre-validated (prealloc) the result is allocated
// once; otherwise it grows with the data actually read, so a lying
// header cannot force a huge up-front allocation.
func readU32Chunked(b *binReader, n uint64, prealloc bool, crc hash.Hash32, scratch []byte, what string) ([]Index, error) {
	var out []Index
	if prealloc {
		out = make([]Index, 0, n)
	}
	out, err := appendU32Chunked(b, out, n, crc, scratch, what)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = []Index{}
	}
	return out, nil
}

// appendU32Chunked decodes n u32s onto dst (the v3 reader appends every
// tile into one array; the v1/v2 readers pass a fresh slice).
func appendU32Chunked(b *binReader, dst []Index, n uint64, crc hash.Hash32, scratch []byte, what string) ([]Index, error) {
	for done := uint64(0); done < n; {
		c := n - done
		if m := uint64(len(scratch) / 4); c > m {
			c = m
		}
		buf := scratch[:c*4]
		if err := b.full(buf, what); err != nil {
			return nil, err
		}
		if crc != nil {
			crc.Write(buf)
		}
		for i := uint64(0); i < c; i++ {
			dst = append(dst, binary.LittleEndian.Uint32(buf[i*4:]))
		}
		done += c
	}
	return dst, nil
}

func readF32Chunked(b *binReader, n uint64, prealloc bool, crc hash.Hash32, scratch []byte, what string) ([]Value, error) {
	var out []Value
	if prealloc {
		out = make([]Value, 0, n)
	}
	out, err := appendF32Chunked(b, out, n, crc, scratch, what)
	if err != nil {
		return nil, err
	}
	if out == nil {
		out = []Value{}
	}
	return out, nil
}

// appendF32Chunked decodes n f32s onto dst, the value-array analog of
// appendU32Chunked.
func appendF32Chunked(b *binReader, dst []Value, n uint64, crc hash.Hash32, scratch []byte, what string) ([]Value, error) {
	for done := uint64(0); done < n; {
		c := n - done
		if m := uint64(len(scratch) / 4); c > m {
			c = m
		}
		buf := scratch[:c*4]
		if err := b.full(buf, what); err != nil {
			return nil, err
		}
		if crc != nil {
			crc.Write(buf)
		}
		for i := uint64(0); i < c; i++ {
			dst = append(dst, math.Float32frombits(binary.LittleEndian.Uint32(buf[i*4:])))
		}
		done += c
	}
	return dst, nil
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
