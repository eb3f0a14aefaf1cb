package tensor

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// readBinaryAll parses any PSTB binary version from r, its remaining
// size auto-detected as ReadFile does.
func readBinaryAll(r io.Reader) (*COO, error) {
	t, _, err := readBinary(r, inputSize(r))
	return t, err
}

func TestBinaryRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := RandomCOO([]Index{100, 80, 60, 10}, 2000, rng)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := readBinaryAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if y.Order() != 4 || y.NNZ() != x.NNZ() {
		t.Fatalf("shape changed: order=%d nnz=%d", y.Order(), y.NNZ())
	}
	for n := range x.Dims {
		if y.Dims[n] != x.Dims[n] {
			t.Fatal("dims changed")
		}
	}
	if d := AbsDiff(x, y); d != 0 {
		t.Fatalf("content diff %v", d)
	}
}

func TestBinaryV1RoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := RandomCOO([]Index{50, 40, 30}, 800, rng)
	var buf bytes.Buffer
	if err := writeBinaryV1(&buf, x); err != nil {
		t.Fatal(err)
	}
	if buf.Bytes()[4] != binVersion1 {
		t.Fatalf("version byte %d, want %d", buf.Bytes()[4], binVersion1)
	}
	y, err := readBinaryAll(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d := AbsDiff(x, y); d != 0 {
		t.Fatalf("v1 content diff %v", d)
	}
}

func TestBinaryRoundTripUnknownSize(t *testing.T) {
	// The chunked slow path (no size hint) must produce the same tensor.
	rng := rand.New(rand.NewSource(11))
	x := RandomCOO([]Index{64, 64, 64}, 1500, rng)
	for name, write := range map[string]func(*bytes.Buffer) error{
		"v1": func(b *bytes.Buffer) error { return writeBinaryV1(b, x) },
		"v2": func(b *bytes.Buffer) error { return WriteBinary(b, x) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatal(err)
		}
		y, err := readBinaryAll(opaqueReader{bytes.NewReader(buf.Bytes())})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := AbsDiff(x, y); d != 0 {
			t.Fatalf("%s: content diff %v", name, d)
		}
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    []byte("NOPE\x01\x03"),
		"bad version":  []byte("PSTB\x09\x03"),
		"truncated v1": []byte("PSTB\x01\x03\x04\x00\x00"),
		"truncated v2": []byte("PSTB\x02\x03\x00\x00\x1c"),
		"zero order":   []byte("PSTB\x01\x00"),
	}
	for name, raw := range cases {
		if _, err := readBinaryAll(bytes.NewReader(raw)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

func TestBinaryRejectsCorruptIndices(t *testing.T) {
	// v1 has no checksum, so an out-of-range index must be caught by
	// Validate. Layout: 4 magic + 1 ver + 1 order + 8 dims + 8 nnz.
	x := NewCOO([]Index{4, 4}, 1)
	x.Append([]Index{1, 1}, 2)
	var buf bytes.Buffer
	if err := writeBinaryV1(&buf, x); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	raw[4+1+1+8+8] = 0xFF
	if _, err := readBinaryAll(bytes.NewReader(raw)); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestBinaryV2RejectsCorruptPayload(t *testing.T) {
	x := NewCOO([]Index{4, 4}, 1)
	x.Append([]Index{1, 1}, 2)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, x); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Payload starts after prologue (12) + header (16+4*2) + header CRC (4).
	raw[12+24+4] ^= 0x01
	_, err := readBinaryAll(bytes.NewReader(raw))
	if err == nil {
		t.Fatal("expected checksum error")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("error %v should name the checksum", err)
	}
}

func TestReadWriteFileDispatch(t *testing.T) {
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(2))
	x := RandomCOO([]Index{20, 20, 20}, 300, rng)
	wantFormat := map[string]string{"a.bten": "pstb-v2", "b.tns": "tns", "c.tns.gz": "tns.gz"}
	for name, format := range wantFormat {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y, st, err := ReadFileStats(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := AbsDiff(x, y); d > 1e-6 {
			t.Fatalf("%s: diff %v", name, d)
		}
		if st.Format != format {
			t.Errorf("%s: detected format %q, want %q", name, st.Format, format)
		}
		if st.NNZ != x.NNZ() || st.Order != 3 || st.Bytes <= 0 {
			t.Errorf("%s: stats %+v look wrong", name, st)
		}
	}
	// v1 files are still read through the same dispatch.
	v1path := filepath.Join(dir, "legacy.bten")
	f, err := os.Create(v1path)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeBinaryV1(f, x); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	y, st, err := ReadFileStats(v1path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Format != "pstb-v1" || AbsDiff(x, y) != 0 {
		t.Fatalf("v1 dispatch: format %q diff %v", st.Format, AbsDiff(x, y))
	}
}

func TestReadWriteFileRejectUnknownExtension(t *testing.T) {
	dir := t.TempDir()
	x := NewCOO([]Index{2, 2}, 1)
	x.Append([]Index{0, 1}, 1)
	for _, name := range []string{"t.txt", "t.bin", "t.gz", "t"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, x); err == nil {
			t.Errorf("WriteFile(%s): expected unsupported-extension error", name)
		}
		if _, err := ReadFile(path); err == nil {
			t.Errorf("ReadFile(%s): expected error", name)
		}
	}
}

func TestBinaryEmptyTensorRoundTrip(t *testing.T) {
	// Zero non-zeros is representable in the binary format (the text
	// format cannot express it: no lines means no dims).
	x := NewCOO([]Index{5, 6, 7}, 0)
	for name, write := range map[string]func(*bytes.Buffer) error{
		"v1": func(b *bytes.Buffer) error { return writeBinaryV1(b, x) },
		"v2": func(b *bytes.Buffer) error { return WriteBinary(b, x) },
	} {
		var buf bytes.Buffer
		if err := write(&buf); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y, err := readBinaryAll(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if y.NNZ() != 0 || y.Order() != 3 || y.Dims[2] != 7 {
			t.Fatalf("%s: got %v", name, y)
		}
		if err := y.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestOrder1RoundTripBothFormats(t *testing.T) {
	x := NewCOO([]Index{9}, 3)
	x.Append([]Index{0}, 1.5)
	x.Append([]Index{8}, -2.25)
	x.Append([]Index{4}, 0.30000001)
	dir := t.TempDir()
	for _, name := range []string{"o1.bten", "o1.tns"} {
		path := filepath.Join(dir, name)
		if err := WriteFile(path, x); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		y, err := ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if y.Order() != 1 || y.NNZ() != 3 {
			t.Fatalf("%s: got %v", name, y)
		}
		if d := AbsDiff(x, y); d != 0 {
			t.Fatalf("%s: diff %v (order-1 values must round-trip exactly)", name, d)
		}
	}
}

// TestWritersGoldenBytes pins the three on-disk forms byte for byte on
// one small unsorted tensor (v3 in two tiles), as the writers produced
// them before the readers were rebuilt: a reader-side change must leave
// every written byte where it was.
func TestWritersGoldenBytes(t *testing.T) {
	x := NewCOO([]Index{3, 4, 5}, 3)
	x.Append([]Index{2, 3, 4}, -0.25)
	x.Append([]Index{0, 1, 2}, 1.5)
	x.Append([]Index{1, 0, 3}, 0.30000001)
	var v2, v3, tns bytes.Buffer
	if err := WriteBinary(&v2, x); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinaryTiled(&v3, x, 2); err != nil {
		t.Fatal(err)
	}
	if err := WriteTNS(&tns, x); err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ got, want string }{
		"v2": {hex.EncodeToString(v2.Bytes()), "50535442020300001c000000" + // prologue
			"0300000000000000" + "030000000400000005000000" + "3000000000000000" + "e7f80be7" + // header, checksum
			"020000000000000001000000" + "030000000100000000000000" + "040000000200000003000000" + // indices, mode-major
			"000080be0000c03f9a99993e" + "f754fd5a"}, // values, checksum
		"v3": {hex.EncodeToString(v3.Bytes()), "505354420303000024000000" +
			"0300000000000000" + "030000000400000005000000" + "3000000000000000" + "0200000002000000" + "cb199912" +
			"0000000000000000" + "02000000" + "a000000000000000" + "20000000" + "176b6389" + "000000000000000002000000" + "010000000100000003000000" + // tile 0
			"0200000000000000" + "01000000" + "c000000000000000" + "10000000" + "cd3ea534" + "020000000300000004000000" + "020000000300000004000000" + // tile 1
			"266f9192" + // directory checksum
			"0000000001000000" + "0100000000000000" + "0200000003000000" + "0000c03f9a99993e" + // tile 0: sorted entries 0, 1
			"02000000" + "03000000" + "04000000" + "000080be"}, // tile 1: entry 2
		"tns": {tns.String(), "3 4 5 -0.25\n1 2 3 1.5\n2 1 4 0.3\n"},
	} {
		if c.got != c.want {
			t.Errorf("%s bytes changed:\n got %s\nwant %s", name, c.got, c.want)
		}
	}
}
