package tensor

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// This file holds the fast paths to the slow ones they replaced: a
// reader or Validate that recognises good content from a reduction must
// reject exactly what the entry-by-entry scan rejected, in its words.

// patchFlat overwrites one u32 of a v1 or v2 image — column col (order
// for the values) of entry x — and re-seals v2's payload checksum.
func patchFlat(raw []byte, order, nnz, x, col int, bits uint32) []byte {
	out := append([]byte(nil), raw...)
	payload := out[6+4*order+8:] // v1: magic, version, order, dims, nnz
	if raw[4] == binVersion2 {
		payload = out[12+16+4*order+4 : len(out)-4]
	}
	binary.LittleEndian.PutUint32(payload[4*(col*nnz+x):], bits)
	if raw[4] == binVersion2 {
		binary.LittleEndian.PutUint32(out[len(out)-4:], crc32.Checksum(payload, castagnoli))
	}
	return out
}

// TestContentRejectionParity plants each kind of bad content at the
// first, a middle and the last entry of the first, a middle and the
// last tile, in images whose checksums are valid, and requires the
// error text of every reader and of Validate to be the scan's, byte for
// byte, on the Go loops and on the column bodies. A subnormal and a
// negative zero are content, not faults.
func TestContentRejectionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	x := RandomCOO([]Index{30, 40, 50}, 400, rng)
	x.SortNatural() // so that v1/v2 hold the entries in v3's order
	order, nnz, mode := x.Order(), x.NNZ(), 1
	var b1, b2 bytes.Buffer
	if err := writeBinaryV1(&b1, x); err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(&b2, x); err != nil {
		t.Fatal(err)
	}
	v1, v2, v3 := b1.Bytes(), b2.Bytes(), tiledImage(t, x, 64)
	tr, err := NewTileReader(bytes.NewReader(v3), int64(len(v3)))
	if err != nil {
		t.Fatal(err)
	}

	for _, asm := range bodySides() {
		withAVX2(asm, func() {
			for _, f := range []struct {
				name string
				col  int
				bits uint32
				ok   bool
			}{
				{"index == dim", mode, x.Dims[mode], false},
				{"index == 2^32-1", mode, math.MaxUint32, false},
				{"NaN", order, 0x7FC00001, false},
				{"+Inf", order, 0x7F800000, false},
				{"-Inf", order, 0xFF800000, false},
				{"subnormal", order, 0x00000001, true},
				{"-0", order, 0x80000000, true},
			} {
				for _, tile := range []int{0, tr.NumTiles() / 2, tr.NumTiles() - 1} {
					cnt := int(tr.Tiles[tile].Count)
					for _, local := range []int{0, cnt / 2, cnt - 1} {
						g := int(tr.Tiles[tile].Start) + local
						// What the scans said at the parent commit.
						var scan, tileScan string
						switch {
						case f.ok:
						case f.col < order:
							scan = fmt.Sprintf("tensor: entry %d mode %d index %d out of range [0,%d)", g, mode, f.bits, x.Dims[mode])
							tileScan = fmt.Sprintf("tensor: tile %d entry %d mode %d index %d outside dim %d: corrupt tile", tile, local, mode, f.bits, x.Dims[mode])
						default:
							v := math.Float32frombits(f.bits)
							scan = fmt.Sprintf("tensor: entry %d has non-finite value %v", g, v)
							tileScan = fmt.Sprintf("tensor: tile %d entry %d has non-finite value %v", tile, local, v)
						}
						where := fmt.Sprintf("AVX2 %v: %s at tile %d entry %d", asm, f.name, tile, local)

						y := x.Clone()
						if f.col < order {
							y.Inds[f.col][g] = f.bits
						} else {
							y.Vals[g] = math.Float32frombits(f.bits)
						}
						if got := errText(y.Validate()); got != scan {
							t.Errorf("%s: Validate = %q, want %q", where, got, scan)
						}

						read := scan
						if !f.ok {
							read = "tensor: binary content invalid: " + scan
						}
						for ver, raw := range map[string][]byte{
							"v1": patchFlat(v1, order, nnz, g, f.col, f.bits),
							"v2": patchFlat(v2, order, nnz, g, f.col, f.bits),
							"v3": patchTile(t, v3, tile, local, f.col, f.bits),
						} {
							got, err := readBinaryAll(bytes.NewReader(raw))
							if errText(err) != read {
								t.Errorf("%s: readBinaryAll(%s) = %q, want %q", where, ver, errText(err), read)
							}
							_, errU := readBinaryAll(opaqueReader{bytes.NewReader(raw)})
							if errText(errU) != read {
								t.Errorf("%s: unsized readBinaryAll(%s) = %q, want %q", where, ver, errText(errU), read)
							}
							if f.ok && err == nil && !identicalBits(got, y) {
								t.Errorf("%s: readBinaryAll(%s) changed the content", where, ver)
							}
						}

						ptr, err := NewTileReader(bytes.NewReader(patchTile(t, v3, tile, local, f.col, f.bits)), int64(len(v3)))
						if err != nil {
							t.Fatal(err)
						}
						var tl Tile
						for i := 0; i < ptr.NumTiles(); i++ {
							want := ""
							if i == tile {
								want = tileScan
							}
							if got := errText(ptr.ReadTile(i, &tl)); got != want {
								t.Errorf("%s: ReadTile(%d) = %q, want %q", where, i, got, want)
							}
						}
					}
				}
			}
		})
	}
}

// identicalBits is identicalCOO on the value bits, so that a NaN or a
// negative zero compares as itself.
func identicalBits(a, b *COO) bool {
	if !reflect.DeepEqual(a.Dims, b.Dims) || !reflect.DeepEqual(a.Inds, b.Inds) || len(a.Vals) != len(b.Vals) {
		return false
	}
	for i := range a.Vals {
		if math.Float32bits(a.Vals[i]) != math.Float32bits(b.Vals[i]) {
			return false
		}
	}
	return true
}

// TestBoxViolationRejectedByBothReaders: an index inside its dim but
// outside its tile's directory box was accepted by the in-core reader
// and rejected by ReadTile; both reject it now, in ReadTile's words.
func TestBoxViolationRejectedByBothReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	x := RandomCOO([]Index{30, 40, 50}, 400, rng)
	x.SortNatural()
	raw := tiledImage(t, x, 64)
	tr, err := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// Mode 0 is sorted outermost, so tile 2's box excludes row 0.
	if tr.Tiles[2].BoxLo[0] == 0 {
		t.Fatal("test geometry broken: tile 2 starts at row 0")
	}
	bad := patchTile(t, raw, 2, 5, 0, 0)
	want := fmt.Sprintf("tensor: tile 2 entry 5 mode 0 index 0 outside directory box [%d,%d]", tr.Tiles[2].BoxLo[0], tr.Tiles[2].BoxHi[0])
	btr, err := NewTileReader(bytes.NewReader(bad), int64(len(bad)))
	if err != nil {
		t.Fatal(err)
	}
	var tl Tile
	if got := errText(btr.ReadTile(2, &tl)); got != want {
		t.Errorf("ReadTile = %q, want %q", got, want)
	}
	if _, err := readEvery(t, bad); errText(err) != want {
		t.Errorf("ReadBinary = %q, want %q", errText(err), want)
	}
}

// TestDecodersMatchNaiveLoop checks the unrolled section decoders
// against the obvious loop on every length around the unroll width.
func TestDecodersMatchNaiveLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for n := 0; n <= 9; n++ {
		for trial := 0; trial < 50; trial++ {
			src := make([]byte, 4*n+3) // an odd tail the decoder must not touch
			rng.Read(src)
			if trial%5 == 0 && n > 0 { // plant a non-finite pattern somewhere
				binary.LittleEndian.PutUint32(src[4*rng.Intn(n):], 0x7F800000|uint32(rng.Intn(2))<<31|uint32(rng.Intn(2)*7))
			}
			wantU, wantF := make([]Index, n), make([]Value, n)
			lo, hi, finite := ^Index(0), Index(0), true
			for i := 0; i < n; i++ {
				u := binary.LittleEndian.Uint32(src[4*i:])
				wantU[i], wantF[i] = u, math.Float32frombits(u)
				lo, hi = min(lo, u), max(hi, u)
				f := float64(wantF[i])
				finite = finite && !math.IsNaN(f) && !math.IsInf(f, 0)
			}
			gotU, gotF := make([]Index, n), make([]Value, n)
			if l, h := decodeU32(gotU, src); l != lo || h != hi || !reflect.DeepEqual(gotU, wantU) {
				t.Fatalf("decodeU32, %d entries: (%d,%d) %v, want (%d,%d) %v", n, l, h, gotU, lo, hi, wantU)
			}
			if fin := decodeF32(gotF, src); fin != finite || !identicalBits(&COO{Vals: gotF}, &COO{Vals: wantF}) {
				t.Fatalf("decodeF32, %d entries: finite=%v %v, want %v %v", n, fin, gotF, finite, wantF)
			}
			if got := maxIndex(wantU); got != hi {
				t.Fatalf("maxIndex(%v) = %d, want %d", wantU, got, hi)
			}
			if got := allFinite(wantF); got != finite {
				t.Fatalf("allFinite(%v) = %v, want %v", wantF, got, finite)
			}
		}
	}
}

// tnsLines are .tns lines of order 3, regular or not, that the record
// scanner and the field parser must read alike: spaces, signs,
// coordinate limits, non-finite and malformed values, blanks, comments,
// and the float32 fast path's edges.
var tnsLines = []string{
	"1 2 3 1.5", "1 2 3 1.5\r", "1\t2\t3\t1.5", " \t1  2\t 3   1.5 \t\r", "1 2 3 -2.5e-3",
	"+1 2 3 1.5", "1 +2 3 1.5", "1 2 3 +1.5", "-1 2 3 1.5",
	"4294967295 1 1 1", "4294967296 1 1 1", "04294967295 1 1 1", "00000000001 2 3 4", "42949672950 1 1 1", "99999999999999999999999 1 1 1",
	"1 1 1 nan", "1 1 1 NaN", "1 1 1 inf", "1 1 1 -Inf", "1 1 1 +infinity", "1 1 1 1e39", "1 1 1 1e-46", "1 1 1 0x1p-2", "1 1 1 1_000",
	"0 1 1 1", "1 0 1 1", "1 1 1", "1 1 1 1 1", "1 1 x 1", "1 1 1 x", "1 1 1x 1", "1 1 1 1 x", "1.0 1 1 1",
	"", "   ", "\r", "# comment", "  # indented comment", "#", "1 1 1 #", "1 1 # 1",
	"1\v2\f3 4", "1 2 3 4\x00", "1 2 3\x004", "١ 2 3 4",
	// The exact float32 fast path's edges: halfway points, forms
	// of the point and sign, and values it must leave to strconv.
	"1 2 3 16777217", "1 2 3 16777219", "1 2 3 0.1", "1 2 3 .5", "1 2 3 5.", "1 2 3 -0", "1 2 3 -0.0", "1 2 3 00.5",
	"1 2 3 1.17549435e-38", "1 2 3 0.0000000000000000000000000000000000000117549435",
	"1 2 3 0.000000000000000000000000000000000000000000001", "1 2 3 -0.0000000000000000000000000000000000000000000014",
	"1 2 3 3.4028235e38", "1 2 3 340282350000000000000000000000000000000", "1 2 3 3402823500000000000000000000000000000000",
	"1 2 3 123456789012345", "1 2 3 1234567890.123456", "1 2 3 -1234567890123456789", "1 2 3 0.30000001192092896",
	"1 2 3 4194304.25", "1 2 3 4194304.75", "1 2 3 0.5 ", "1 2 3 -", "1 2 3 .", "1 2 3 -.", "1 2 3 1.2.3", "1 2 3 --1", "1 2 3 1-",
	"999999999 1 1 1", "1000000000 1 1 1", "000000000 1 1 1", "000000001 1 1 1",
}

// TestScanTNSLineMatchesFieldParser holds the one-pass record scanner
// to the field-by-field parser it runs ahead of: on every line, regular
// or not, the shard parser must return what trimming, skipping and
// parseTNSDataLine alone return — value bits, coordinates, error text.
func TestScanTNSLineMatchesFieldParser(t *testing.T) {
	for _, ln := range tnsLines {
		// The field parser alone, as parseTNSShard used it.
		wantCoords, want, wantErr, skipped := make([]Index, 3), Value(0), error(nil), false
		if trimmed := trimTNSSpace([]byte(ln)); len(trimmed) == 0 || trimmed[0] == '#' {
			skipped = true
		} else {
			want, wantErr = parseTNSDataLine(trimmed, 3, wantCoords)
		}
		// A line ending the input without a newline, and the same line
		// followed by more input.
		for follow, data := range []string{ln, ln + "\n", ln + "\n7 8 9 1\n"} {
			var sh tnsShard
			parseTNSShard([]byte(data), 3, &sh)
			if errText(sh.err) != errText(wantErr) {
				t.Errorf("%q: error %q, want %q", data, errText(sh.err), errText(wantErr))
				continue
			}
			if wantErr != nil {
				if sh.errLine != 1 {
					t.Errorf("%q: error on line %d, want 1", data, sh.errLine)
				}
				continue
			}
			if skipped {
				if n := len(sh.vals); n != follow/2 { // only the follow-up line, when there is one
					t.Errorf("%q: %d entries from a line to skip", data, n)
				}
				continue
			}
			got := []Index{sh.inds[0][0], sh.inds[1][0], sh.inds[2][0]}
			if !reflect.DeepEqual(got, wantCoords) || math.Float32bits(sh.vals[0]) != math.Float32bits(want) {
				t.Errorf("%q: parsed %v %v, want %v %v", data, got, sh.vals[0], wantCoords, want)
			}
		}
	}
}
