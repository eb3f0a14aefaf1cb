package tensor

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"io"
	"math/rand"
	"testing"
)

// This file is the corrupt-input fault-injection harness for the PSTB
// binary formats: it programmatically truncates, bit-flips, and garbles
// v1 and v2 images (v3: truncation here, the rest in tileio_test.go) and
// asserts that every corruption yields an error —
// never a panic, an OOM-sized allocation, or (for v2) silently wrong
// data. v1 carries no checksums, so for payload corruption it can only
// promise "error or visibly different tensor", which is exactly the gap
// v2 closes.

// opaqueReader hides Len/Seek so ReadBinary exercises the unknown-size
// chunked path.
type opaqueReader struct{ r io.Reader }

func (o opaqueReader) Read(p []byte) (int, error) { return o.r.Read(p) }

func faultTensor(t *testing.T) *COO {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	return RandomCOO([]Index{60, 50, 40}, 200, rng)
}

func faultImages(t *testing.T) map[string][]byte {
	t.Helper()
	x := faultTensor(t)
	var v1, v2, v3 bytes.Buffer
	if err := writeBinaryV1(&v1, x); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&v2, x); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryTiled(&v3, x, 64); err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{"v1": v1.Bytes(), "v2": v2.Bytes(), "v3": v3.Bytes()}
}

// identicalCOO reports exact equality of dims, index order, and value
// bits — the "silent wrong data" detector.
func identicalCOO(a, b *COO) bool {
	if a.Order() != b.Order() || a.NNZ() != b.NNZ() {
		return false
	}
	for n := range a.Dims {
		if a.Dims[n] != b.Dims[n] {
			return false
		}
	}
	for n := range a.Inds {
		for i := range a.Inds[n] {
			if a.Inds[n][i] != b.Inds[n][i] {
				return false
			}
		}
	}
	for i := range a.Vals {
		if a.Vals[i] != b.Vals[i] {
			return false
		}
	}
	return true
}

// readBoth parses raw through both the sized (bytes.Reader) and
// unknown-size (opaque) paths and requires them to agree on
// success/failure and on content; it returns the sized result.
func readBoth(t *testing.T, raw []byte) (*COO, error) {
	t.Helper()
	return readThrough(t, raw, map[string]func(io.Reader) io.Reader{"chunked": awkwardReaders["chunked"]})
}

// readEvery is readBoth plus every awkward reader of readahead_test.go,
// so that each refill boundary of the read-ahead buffer falls everywhere.
func readEvery(t *testing.T, raw []byte) (*COO, error) {
	t.Helper()
	return readThrough(t, raw, awkwardReaders)
}

func readThrough(t *testing.T, raw []byte, wrappers map[string]func(io.Reader) io.Reader) (*COO, error) {
	t.Helper()
	got, err := readBinaryAll(bytes.NewReader(raw))
	for name, wrap := range wrappers {
		gotU, errU := readBinaryAll(wrap(bytes.NewReader(raw)))
		// The sized path validates declared lengths up front; the others
		// discover the same truncations at read time. They must agree
		// on accept/reject — an asymmetry either way is a validation hole.
		if (err == nil) != (errU == nil) {
			t.Fatalf("sized/%s paths disagree: sized err=%v, %s err=%v", name, err, name, errU)
		}
		if err == nil && !identicalCOO(got, gotU) {
			t.Fatalf("sized and %s paths disagree on content", name)
		}
	}
	return got, err
}

// TestFaultTruncationEveryByte cuts each image at every length from 0 to
// len-1; every prefix must produce an error, not a panic or a hang.
func TestFaultTruncationEveryByte(t *testing.T) {
	for name, raw := range faultImages(t) {
		for cut := 0; cut < len(raw); cut++ {
			if _, err := readEvery(t, raw[:cut]); err == nil {
				t.Fatalf("%s: truncation at byte %d/%d accepted", name, cut, len(raw))
			}
		}
	}
}

// TestFaultTruncationSectionBoundaries documents the exact section
// edges — the cuts most likely to be "cleanly" wrong.
func TestFaultTruncationSectionBoundaries(t *testing.T) {
	x := faultTensor(t)
	order, nnz := x.Order(), x.NNZ()
	images := faultImages(t)

	v1Bounds := []int{4, 5, 6, 6 + 4*order, 6 + 4*order + 8}
	for m := 1; m <= order; m++ {
		v1Bounds = append(v1Bounds, 6+4*order+8+4*nnz*m)
	}
	v2HeaderEnd := 12 + 16 + 4*order
	v2Bounds := []int{4, 5, 12, v2HeaderEnd, v2HeaderEnd + 4}
	for m := 1; m <= order+1; m++ {
		v2Bounds = append(v2Bounds, v2HeaderEnd+4+4*nnz*m)
	}
	for name, bounds := range map[string][]int{"v1": v1Bounds, "v2": v2Bounds} {
		raw := images[name]
		for _, cut := range bounds {
			if cut >= len(raw) {
				t.Fatalf("%s: boundary %d outside image of %d bytes", name, cut, len(raw))
			}
			if _, err := readEvery(t, raw[:cut]); err == nil {
				t.Errorf("%s: truncation at section boundary %d accepted", name, cut)
			}
		}
		// The full image still parses: the harness itself is sound.
		if _, err := readEvery(t, raw); err != nil {
			t.Fatalf("%s: uncorrupted image rejected: %v", name, err)
		}
	}
}

// TestFaultBitFlipsV2 flips every bit of the v2 image; the checksums
// (plus magic/version/flags/length validation) must catch every one.
func TestFaultBitFlipsV2(t *testing.T) {
	raw := faultImages(t)["v2"]
	flipped := make([]byte, len(raw))
	for pos := 0; pos < len(raw); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, raw)
			flipped[pos] ^= 1 << bit
			read := readBoth
			if bit == pos%8 { // the awkward readers see every byte flipped, not every bit
				read = readEvery
			}
			if _, err := read(t, flipped); err == nil {
				t.Fatalf("v2: bit flip at byte %d bit %d accepted silently", pos, bit)
			}
		}
	}
}

// TestFaultBitFlipsV1 flips every bit of the v1 image. v1 has no
// checksums, so a flip may legally parse — but then the result must
// differ visibly from the original (no silent acceptance of identical-
// looking data), and structural fields (magic, order, nnz, dims) must
// still be caught by the size and validation checks.
func TestFaultBitFlipsV1(t *testing.T) {
	orig := faultTensor(t)
	raw := faultImages(t)["v1"]
	flipped := make([]byte, len(raw))
	accepted := 0
	for pos := 0; pos < len(raw); pos++ {
		for bit := 0; bit < 8; bit++ {
			copy(flipped, raw)
			flipped[pos] ^= 1 << bit
			got, err := readBinaryAll(bytes.NewReader(flipped))
			if err != nil {
				continue
			}
			accepted++
			if identicalCOO(orig, got) {
				t.Fatalf("v1: bit flip at byte %d bit %d parsed to a tensor identical to the original", pos, bit)
			}
		}
	}
	// nnz flips that *grow* the count must fail against the known input
	// size (a shrinking flip legally parses a prefix in checksum-free
	// v1 — the gap the v2 header CRC closes).
	nnzOff := 6 + 4*orig.Order()
	nnz := binary.LittleEndian.Uint64(raw[nnzOff:])
	for bit := 0; bit < 64; bit++ {
		if nnz^(1<<bit) <= nnz {
			continue
		}
		copy(flipped, raw)
		flipped[nnzOff+bit/8] ^= 1 << (bit % 8)
		if _, err := readBinaryAll(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("v1: nnz-growing bit flip %d accepted with size hint", bit)
		}
	}
	if accepted == 0 {
		t.Log("v1: every bit flip happened to error (no undetectable payload flips in this image)")
	}
}

// TestFaultOversizedHeaderFields plants absurd nnz/order declarations
// and asserts the readers fail fast — descriptive error, no multi-GB
// allocation — on both the sized and unknown-size paths.
func TestFaultOversizedHeaderFields(t *testing.T) {
	raw := faultImages(t)["v1"]
	order := faultTensor(t).Order()

	huge := make([]byte, len(raw))
	copy(huge, raw)
	binary.LittleEndian.PutUint64(huge[6+4*order:], 1<<62)
	if _, err := readEvery(t, huge); err == nil {
		t.Fatal("v1: nnz=2^62 accepted")
	}
	// Below the sanity cap but far beyond the input: the size hint must
	// reject it, and the chunked path must fail after at most one chunk.
	binary.LittleEndian.PutUint64(huge[6+4*order:], 1<<30)
	if _, err := readEvery(t, huge); err == nil {
		t.Fatal("v1: nnz=2^30 with tiny payload accepted")
	}

	// v2: forge a big-nnz header with a *valid* CRC; the payload-length
	// cross-check and size validation must still reject it.
	forged := forgeV2Header(t, 255, 1<<30)
	if _, err := readEvery(t, forged); err == nil {
		t.Fatal("v2: forged huge header accepted")
	}
}

// forgeV2Header builds a v2 image whose header checksums correctly but
// whose nnz/order promise far more payload than follows.
func forgeV2Header(t *testing.T, order int, nnz uint64) []byte {
	t.Helper()
	headerLen := 16 + 4*order
	buf := make([]byte, 12+headerLen)
	copy(buf[0:4], binMagic)
	buf[4] = binVersion2
	buf[5] = byte(order)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(headerLen))
	binary.LittleEndian.PutUint64(buf[12:20], nnz)
	for n := 0; n < order; n++ {
		binary.LittleEndian.PutUint32(buf[20+4*n:], 1000)
	}
	binary.LittleEndian.PutUint64(buf[20+4*order:], uint64(order+1)*4*nnz)
	sum := crc32.Checksum(buf, castagnoli)
	var crcb [4]byte
	binary.LittleEndian.PutUint32(crcb[:], sum)
	return append(buf, crcb[:]...)
}

// TestFaultGarbledStreams feeds deterministic random garbage (with and
// without a valid magic prefix) through both readers: errors only,
// never panics.
func TestFaultGarbledStreams(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		n := rng.Intn(256)
		raw := make([]byte, n)
		rng.Read(raw)
		if i%2 == 0 && n >= 5 {
			copy(raw, binMagic)
			raw[4] = byte(1 + rng.Intn(2)) // valid version byte
		}
		got, err := readEvery(t, raw)
		if err == nil {
			// Vanishingly unlikely, but if garbage parses it must at
			// least be structurally valid.
			if verr := got.Validate(); verr != nil {
				t.Fatalf("garbage %d parsed to invalid tensor: %v", i, verr)
			}
		}
	}
}

// TestFaultTNSCorruption garbles the text format too: truncation
// mid-line and mid-token must error or parse to a strictly smaller
// valid tensor, and injected junk tokens must error.
func TestFaultTNSCorruption(t *testing.T) {
	x := faultTensor(t)
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		cut := rng.Intn(len(raw))
		got, err := ParseTNS(raw[:cut])
		if err != nil {
			continue
		}
		if verr := got.Validate(); verr != nil {
			t.Fatalf("truncated .tns parsed to invalid tensor: %v", verr)
		}
		if got.NNZ() > x.NNZ() {
			t.Fatal("truncation grew the tensor")
		}
	}
	for _, junk := range []string{"1 2 x 1.0\n", "0 1 1 1.0\n", "4294967296 1 1 1.0\n", "1 1 1 1 1.0\n", "1 1\n"} {
		corrupted := append(append([]byte{}, raw...), junk...)
		if _, err := ParseTNS(corrupted); err == nil {
			t.Errorf("junk line %q accepted", junk)
		}
	}
}
