package tensor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"testing/iotest"
)

// This file pins the read-ahead contract of binReader (DESIGN.md §8):
// few, large reads once a verified header has declared what follows;
// never a byte past the image; and the same verdict whatever the sizes
// in which the underlying reader hands the bytes over.

// countingReader counts Read calls and hides Len/Seek.
type countingReader struct {
	r     io.Reader
	calls int
}

func (c *countingReader) Read(p []byte) (int, error) {
	c.calls++
	return c.r.Read(p)
}

func TestReadAheadFewReads(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	small := RandomCOO([]Index{1500, 1100, 3600}, 5_000, rng)
	flat := RandomCOO([]Index{800, 800, 800, 800}, 12_500, rng) // 250 KB of payload
	var v3, v2 bytes.Buffer
	if err := WriteBinaryTiled(&v3, small, small.NNZ()/32+1); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&v2, flat); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct {
		raw  []byte
		want *COO
	}{"v3, 32 tiles": {v3.Bytes(), small}, "v2, 250 KB": {v2.Bytes(), flat}} {
		cr := &countingReader{r: bytes.NewReader(c.raw)}
		got, _, err := readBinary(cr, int64(len(c.raw)))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := AbsDiff(c.want, got); d != 0 {
			t.Fatalf("%s: content diff %v", name, d)
		}
		// Prologue, header, (directory,) payload: each one fetch.
		if cr.calls > 4 {
			t.Errorf("%s: decoded with %d Read calls, want at most 4", name, cr.calls)
		}
	}
}

// TestReadAheadStopsAtImageEnd writes a v1, a v2 and a v3 image back to
// back, then garbage, and reads them with consecutive ReadBinary calls:
// from a bytes.Buffer (whose Len covers everything that follows, so the
// size hint is no help) and from a pipe (no size at all). Each call must
// leave the stream exactly at the end of its image.
func TestReadAheadStopsAtImageEnd(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	xs := []*COO{
		RandomCOO([]Index{9, 8, 7}, 60, rng),
		RandomCOO([]Index{50, 40, 30, 20}, 3_000, rng),
		RandomCOO([]Index{64, 64, 64}, 2_000, rng),
		NewCOO([]Index{3, 3}, 0), // an image that is all header
	}
	garbage := []byte("PSTB\x02 this is not an image, and nobody may have touched it")
	var stream bytes.Buffer
	for i, x := range xs {
		var err error
		switch i % 3 {
		case 0:
			err = writeBinaryV1(&stream, x)
		case 1:
			err = WriteBinary(&stream, x)
		case 2:
			err = WriteBinaryTiled(&stream, x, 300)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	stream.Write(garbage)
	raw := stream.Bytes()

	check := func(name string, r io.Reader) {
		t.Helper()
		for i, x := range xs {
			got, err := ReadBinary(r)
			if err != nil {
				t.Fatalf("%s: image %d: %v", name, i, err)
			}
			if !SameShape(x, got) || AbsDiff(x, got) != 0 {
				t.Fatalf("%s: image %d came back different", name, i)
			}
		}
		rest, err := io.ReadAll(r)
		if err != nil || !bytes.Equal(rest, garbage) {
			t.Fatalf("%s: %d bytes left after the images (err %v), want the %d bytes of garbage untouched", name, len(rest), err, len(garbage))
		}
	}
	check("bytes.Buffer", bytes.NewBuffer(append([]byte(nil), raw...)))

	pr, pw := io.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		// Odd-sized writes, so image ends fall inside pipe transfers.
		for at := 0; at < len(raw); at += 1000 {
			if _, err := pw.Write(raw[at:min(at+1000, len(raw))]); err != nil {
				return
			}
		}
		pw.Close()
	}()
	check("io.Pipe", pr)
	pr.Close()
	<-done
}

// awkwardReaders are the ways the fault matrix re-reads every image:
// whole but without a size, a byte at a time, in halves, and with the
// last bytes delivered together with io.EOF — so that every refill
// boundary of the read-ahead buffer falls everywhere.
var awkwardReaders = map[string]func(io.Reader) io.Reader{
	"chunked":       func(r io.Reader) io.Reader { return opaqueReader{r} },
	"OneByteReader": iotest.OneByteReader,
	"HalfReader":    iotest.HalfReader,
	"DataErrReader": iotest.DataErrReader,
}

// TestForgedHeaderCostsOneBuffer: on a stream of unknown size a header
// whose checksum is valid but whose nnz (v2) or tile count (v3) promises
// gigabytes raises what may be read ahead — into the one fixed buffer —
// and nothing else: the read fails at the end of the stream having
// allocated at most that buffer.
func TestForgedHeaderCostsOneBuffer(t *testing.T) {
	v3 := make([]byte, 12+24+4*3)
	copy(v3, binMagic)
	v3[4], v3[5] = binVersion3, 3
	binary.LittleEndian.PutUint32(v3[8:], 24+4*3)
	binary.LittleEndian.PutUint64(v3[12:], 1<<30) // nnz
	for n := 0; n < 3; n++ {
		binary.LittleEndian.PutUint32(v3[20+4*n:], 1000)
	}
	binary.LittleEndian.PutUint64(v3[32:], 16<<30) // payloadLen = 4*(3+1)*nnz
	binary.LittleEndian.PutUint32(v3[40:], 1<<24)  // tileCount
	binary.LittleEndian.PutUint32(v3[44:], 1<<6)   // targetTileNNZ
	v3 = binary.LittleEndian.AppendUint32(v3, crc32.Checksum(v3, castagnoli))
	v3 = append(v3, make([]byte, 5000)...) // some directory-looking zeros, then nothing

	for name, raw := range map[string][]byte{"v2": forgeV2Header(t, 3, 1<<30), "v3": v3} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := ReadBinary(opaqueReader{bytes.NewReader(raw)})
		runtime.ReadMemStats(&after)
		if err == nil || !strings.HasSuffix(err.Error(), "EOF") {
			t.Fatalf("%s: err = %v, want the stream's end", name, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got > binChunkBytes+64<<10 {
			t.Errorf("%s: rejecting a forged header allocated %d bytes, want at most one %d-byte buffer", name, got, binChunkBytes)
		}
	}
}
