package tensor

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// tnsOracle parses .tns bytes the slow way ParseTNS must agree with:
// split on '\n', then per line trim, skip blanks and comments, and run
// parseTNSDataLine.
func tnsOracle(data []byte) (*COO, error) {
	order, err := tnsOrder(data)
	if err != nil {
		return nil, err
	}
	x := &COO{Dims: make([]Index, order), Inds: make([][]Index, order), Vals: []Value{}}
	coords := make([]Index, order)
	for line, ln := range bytes.Split(data, []byte{'\n'}) {
		if ln = trimTNSSpace(ln); len(ln) == 0 || ln[0] == '#' {
			continue
		}
		v, err := parseTNSDataLine(ln, order, coords)
		if err != nil {
			return nil, fmt.Errorf("tns: line %d: %v", line+1, err)
		}
		for n, i := range coords {
			x.Inds[n] = append(x.Inds[n], i)
			x.Dims[n] = max(x.Dims[n], i+1)
		}
		x.Vals = append(x.Vals, v)
	}
	return x, nil
}

// FuzzReadTNS exercises the FROSTT parser against arbitrary inputs: it
// must never panic, must agree with tnsOracle — the same entries, value
// bits and dims, or the same error text and line — and any tensor it
// accepts must be structurally valid and round-trip through the writer.
func FuzzReadTNS(f *testing.F) {
	f.Add("1 1 1 1.0\n")
	f.Add("# comment\n2 3 4 -1.5\n1 1 1 0.25\n")
	f.Add("")
	f.Add("0 0 0 0\n")
	f.Add("1 2 3\n")
	f.Add("1 1 1 nan\n")
	f.Add("4294967295 1 1 1\n")
	f.Add("1 1 1 1\n1 1 2\n")
	for _, ln := range tnsLines {
		f.Add(ln)
		f.Add(ln + "\n7 8 9 1\n")
	}
	f.Fuzz(func(t *testing.T, in string) {
		x, err := ParseTNS([]byte(in))
		want, wantErr := tnsOracle([]byte(in))
		if errText(err) != errText(wantErr) {
			t.Fatalf("error %q, the oracle's %q", errText(err), errText(wantErr))
		}
		if err != nil {
			return
		}
		if !identicalBits(x, want) {
			t.Fatalf("parsed %v %v %v, the oracle %v %v %v", x.Dims, x.Inds, x.Vals, want.Dims, want.Inds, want.Vals)
		}
		if verr := x.Validate(); verr != nil {
			// NaN/Inf values are representable in .tns input but rejected
			// by Validate; that combination is acceptable. Structural
			// breakage is not.
			if !strings.Contains(verr.Error(), "non-finite") {
				t.Fatalf("parser accepted structurally invalid tensor: %v", verr)
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteTNS(&buf, x); err != nil {
			t.Fatalf("writer failed on parsed tensor: %v", err)
		}
		y, err := ParseTNS(buf.Bytes())
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if y.NNZ() != x.NNZ() || y.Order() != x.Order() {
			t.Fatalf("roundtrip changed shape: %d/%d -> %d/%d", x.Order(), x.NNZ(), y.Order(), y.NNZ())
		}
	})
}

// addBinarySeeds gives a fuzz target the PSTB corpus: a small tensor in
// all three versions, whole, truncated and bit-flipped, and headers
// that promise more than follows.
func addBinarySeeds(f *testing.F) {
	small := NewCOO([]Index{3, 4, 5}, 4)
	small.Append([]Index{0, 1, 2}, 1.5)
	small.Append([]Index{2, 3, 4}, -0.25)
	var v1, v2, v3 bytes.Buffer
	if err := writeBinaryV1(&v1, small); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinary(&v2, small); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinaryTiled(&v3, small, 1); err != nil {
		f.Fatal(err)
	}
	f.Add(v1.Bytes())
	f.Add(v2.Bytes())
	f.Add(v3.Bytes())
	f.Add(v1.Bytes()[:len(v1.Bytes())/2]) // truncated
	f.Add(v2.Bytes()[:len(v2.Bytes())/2])
	f.Add(v3.Bytes()[:len(v3.Bytes())/2])
	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[len(flipped)/2] ^= 0x10 // payload corruption
	f.Add(flipped)
	flipped3 := append([]byte(nil), v3.Bytes()...)
	flipped3[len(flipped3)-2] ^= 0x10 // tile payload corruption
	f.Add(flipped3)
	dirFlipped := append([]byte(nil), v3.Bytes()...)
	dirFlipped[60] ^= 0x01 // tile directory corruption
	f.Add(dirFlipped)
	f.Add([]byte("PSTB"))
	f.Add([]byte("PSTB\x01\xff"))                                         // huge order, no dims
	f.Add([]byte("PSTB\x02\x02\x00\x00\x18\x00\x00\x00"))                 // v2 prologue only
	f.Add([]byte("PSTB\x03\x02\x00\x00\x20\x00\x00\x00"))                 // v3 prologue only
	f.Add([]byte("PSTB\x01\x01\x02\x00\x00\x00\xff\xff\xff\xff\xff\xff")) // absurd nnz
	// Columns long enough for the column bodies (32 entries a block),
	// whole and with a NaN, an index equal to its dim and an infinity
	// inside a block.
	long := RandomCOO([]Index{9, 10, 11}, 70, rand.New(rand.NewSource(2)))
	var l2, l3 bytes.Buffer
	if err := WriteBinary(&l2, long); err != nil {
		f.Fatal(err)
	}
	if err := WriteBinaryTiled(&l3, long, 40); err != nil {
		f.Fatal(err)
	}
	f.Add(l2.Bytes())
	f.Add(patchFlat(l2.Bytes(), 3, long.NNZ(), 5, 3, 0x7FC00000))
	f.Add(patchFlat(l2.Bytes(), 3, long.NNZ(), 33, 1, 10))
	f.Add(l3.Bytes())
	f.Add(patchTile(f, l3.Bytes(), 0, 7, 3, 0x7F800000))
}

// FuzzReadBinary exercises the PSTB reader (all three versions, both
// the sized and unknown-size paths) against arbitrary bytes: it must
// never panic or over-allocate, any tensor it accepts must be
// structurally valid, and accepted tensors must round-trip through the
// v2 writer. The Go loops and the column bodies must return the same
// tensor or the same error text.
func FuzzReadBinary(f *testing.F) {
	addBinarySeeds(f)
	f.Fuzz(func(t *testing.T, raw []byte) {
		var goX *COO
		var goErr error
		for _, asm := range bodySides() {
			withAVX2(asm, func() {
				x, err := checkReadBinary(t, raw)
				if !asm {
					goX, goErr = x, err
				} else if errText(err) != errText(goErr) || err == nil && !identicalBits(x, goX) {
					t.Fatalf("the column bodies read %v, the Go loops %v", err, goErr)
				}
			})
		}
	})
}

// checkReadBinary is FuzzReadBinary's check of one side.
func checkReadBinary(t *testing.T, raw []byte) (*COO, error) {
	x, err := readBinaryAll(bytes.NewReader(raw))
	xu, erru := readBinaryAll(opaqueReader{bytes.NewReader(raw)})
	if (err == nil) != (erru == nil) {
		t.Fatalf("sized/chunked disagree: %v vs %v", err, erru)
	}
	if err != nil {
		return nil, err
	}
	if verr := x.Validate(); verr != nil {
		t.Fatalf("reader accepted invalid tensor: %v", verr)
	}
	if !identicalCOO(x, xu) {
		t.Fatal("sized and chunked parses differ")
	}
	var buf bytes.Buffer
	if werr := WriteBinary(&buf, x); werr != nil {
		t.Fatalf("writer failed on accepted tensor: %v", werr)
	}
	y, rerr := readBinaryAll(&buf)
	if rerr != nil {
		t.Fatalf("re-read of rewritten tensor failed: %v", rerr)
	}
	if !identicalCOO(x, y) {
		t.Fatal("v2 round trip changed content")
	}
	return x, nil
}

// FuzzTiledAgree holds the two v3 readers to one verdict: on any bytes,
// either NewTileReader + ReadTile over every tile succeed with exactly
// the entries ReadBinary returns, or both fail. A streamed kernel
// therefore never sees content the in-core path would have refused. It
// runs on the Go loops and on the column bodies.
func FuzzTiledAgree(f *testing.F) {
	addBinarySeeds(f)
	// A well-formed image whose content is bad: an index outside its
	// tile's box, a NaN.
	x := RandomCOO([]Index{6, 7, 8}, 40, rand.New(rand.NewSource(1)))
	var v3 bytes.Buffer
	if err := WriteBinaryTiled(&v3, x, 16); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Add(patchTile(f, v3.Bytes(), 1, 3, 0, 0))
	f.Add(patchTile(f, v3.Bytes(), 2, 1, 3, 0x7FC00000))
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, asm := range bodySides() {
			withAVX2(asm, func() { checkTiledAgree(t, raw) })
		}
	})
}

// checkTiledAgree is FuzzTiledAgree's check on one side of cpu.AVX2.
func checkTiledAgree(t *testing.T, raw []byte) {
	want, err := readBinaryAll(bytes.NewReader(raw))
	tr, terr := NewTileReader(bytes.NewReader(raw), int64(len(raw)))
	var got *COO
	if terr == nil {
		got = &COO{Dims: tr.Dims, Inds: make([][]Index, tr.Order()), Vals: []Value{}}
		var tl Tile
		for i := 0; i < tr.NumTiles(); i++ {
			if terr = tr.ReadTile(i, &tl); terr != nil {
				break
			}
			for n := range got.Inds {
				got.Inds[n] = append(got.Inds[n], tl.Inds[n]...)
			}
			got.Vals = append(got.Vals, tl.Vals...)
		}
	}
	if len(raw) < 5 || raw[4] != binVersion3 {
		if terr == nil {
			t.Fatal("a TileReader opened an image that is not v3")
		}
		return
	}
	if (err == nil) != (terr == nil) {
		t.Fatalf("the v3 readers disagree: in-core err=%v, streamed err=%v", err, terr)
	}
	if err == nil && !identicalCOO(want, got) {
		t.Fatal("the v3 readers returned different entries")
	}
}

// FuzzDedupSort checks that arbitrary coordinate streams survive
// Dedup/Sort with invariants intact.
func FuzzDedupSort(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(2))
	f.Add([]byte{255, 255, 0, 0}, uint8(3))
	f.Fuzz(func(t *testing.T, raw []byte, orderRaw uint8) {
		order := int(orderRaw)%4 + 1
		dims := make([]Index, order)
		for n := range dims {
			dims[n] = 16
		}
		x := NewCOO(dims, len(raw)/order)
		idx := make([]Index, order)
		for i := 0; i+order <= len(raw); i += order {
			for n := 0; n < order; n++ {
				idx[n] = Index(raw[i+n]) % 16
			}
			x.Append(idx, Value(i+1))
		}
		want := x.Clone().SortedBy(OtherModes(order, -1)) // Dedup sorts and compacts x in place
		x.Dedup()
		if err := x.Validate(); err != nil {
			t.Fatalf("Dedup broke invariants: %v", err)
		}
		// x holds one entry per run of equal coordinates of want, with
		// the run's values summed in float32 in stored order.
		k := 0
		for i := 0; i < want.NNZ(); k++ {
			var s Value
			j := i
			for ; j < want.NNZ() && want.sameCoord(i, j); j++ {
				s += want.Vals[j]
			}
			if k >= x.NNZ() || compareCoords(x, k, want, i) != 0 {
				t.Fatal("duplicates survived Dedup, or it lost a coordinate")
			}
			if x.Vals[k] != s {
				t.Fatal("Dedup changed summed content")
			}
			i = j
		}
		if k != x.NNZ() {
			t.Fatal("Dedup added coordinates")
		}
		for mode := 0; mode < order; mode++ {
			x.SortForMode(mode)
			x.FiberPointers(mode) // must not panic
		}
	})
}
