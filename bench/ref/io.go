package ref

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"strconv"
	"strings"
	"sync"
)

// ReadTNS loads a FROSTT .tns text file (one "i1 ... iN value" line per
// non-zero, 1-based coordinates, '#' comments) with bufio and strconv.
// Mode sizes are the largest coordinate seen per mode. The file is cut
// at line ends into one contiguous part per worker, each parsed line by
// line on its own goroutine (the plainest schedule there is, as in
// Static); one worker is the plain serial reader.
func ReadTNS(path string, workers int) (*COO, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if workers < 1 {
		workers = 1
	}
	parts := make([]*COO, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	lo := 0
	for w := 0; w < workers; w++ {
		hi := len(data) * (w + 1) / workers
		if hi < lo {
			hi = lo
		}
		if w == workers-1 {
			hi = len(data)
		} else if nl := bytes.IndexByte(data[hi:], '\n'); nl >= 0 {
			hi += nl + 1
		} else {
			hi = len(data)
		}
		wg.Add(1)
		go func(w int, part []byte) {
			defer wg.Done()
			parts[w], errs[w] = parseTNS(part)
		}(w, data[lo:hi])
		lo = hi
	}
	wg.Wait()
	t := &COO{}
	for w, p := range parts {
		if errs[w] != nil {
			return nil, fmt.Errorf("ref: %s, part %d of %d: %w", path, w+1, workers, errs[w])
		}
		if p.Inds == nil {
			continue // a part without non-zeros
		}
		if t.Inds == nil {
			t.Inds, t.Dims = make([][]uint32, len(p.Inds)), make([]uint32, len(p.Inds))
		}
		if len(p.Inds) != len(t.Inds) {
			return nil, fmt.Errorf("ref: %s: lines of order %d and of order %d", path, len(t.Inds), len(p.Inds))
		}
		for n := range t.Inds {
			t.Inds[n] = append(t.Inds[n], p.Inds[n]...)
			if p.Dims[n] > t.Dims[n] {
				t.Dims[n] = p.Dims[n]
			}
		}
		t.Vals = append(t.Vals, p.Vals...)
	}
	if t.Inds == nil {
		return nil, fmt.Errorf("ref: %s: no non-zeros", path)
	}
	return t, nil
}

// parseTNS parses the lines of one part of a .tns file; a part without
// non-zeros gives a COO without modes.
func parseTNS(part []byte) (*COO, error) {
	t := &COO{}
	sc := bufio.NewScanner(bytes.NewReader(part))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		if t.Inds == nil {
			if len(fields) < 2 {
				return nil, fmt.Errorf("line %d: need a coordinate and a value", line)
			}
			t.Inds = make([][]uint32, len(fields)-1)
			t.Dims = make([]uint32, len(fields)-1)
		}
		if len(fields) != len(t.Inds)+1 {
			return nil, fmt.Errorf("line %d: %d fields, want %d", line, len(fields), len(t.Inds)+1)
		}
		for n := range t.Inds {
			c, err := strconv.ParseUint(fields[n], 10, 32)
			if err != nil || c == 0 {
				return nil, fmt.Errorf("line %d: bad coordinate %q", line, fields[n])
			}
			t.Inds[n] = append(t.Inds[n], uint32(c-1))
			if uint32(c) > t.Dims[n] {
				t.Dims[n] = uint32(c)
			}
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad value %q", line, fields[len(fields)-1])
		}
		t.Vals = append(t.Vals, float32(v))
	}
	return t, sc.Err()
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ReadBTEN loads a PSTB v2 (flat) or v3 (tiled) binary tensor file whole:
// the file is read with os.ReadFile, every CRC32C is checked, and the
// little-endian payload is decoded with encoding/binary.
//
//	prologue: "PSTB" | u8 version | u8 order | u16 flags | u32 headerLen
//	v2 header: u64 nnz | u32 dims[order] | u64 payloadLen
//	v3 header: v2 header | u32 tileCount | u32 targetTileNNZ
//	u32 CRC32C(prologue+header)
//	v3 only: tileCount x (u64 start | u32 count | u64 offset | u32 length |
//	         u32 crc | u32 boxLo[order] | u32 boxHi[order]) | u32 CRC32C(dir)
//	payload: u32 inds[order][count] | f32 vals[count], once (v2, followed
//	         by u32 CRC32C(payload)) or once per tile (v3)
func ReadBTEN(path string) (*COO, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	le := binary.LittleEndian
	if len(data) < 12 || string(data[:4]) != "PSTB" {
		return nil, fmt.Errorf("ref: %s: not a PSTB file", path)
	}
	version, order := data[4], int(data[5])
	headerLen := int(le.Uint32(data[8:12]))
	want := 16 + 4*order
	if version == 3 {
		want += 8
	}
	if (version != 2 && version != 3) || order == 0 || headerLen != want {
		return nil, fmt.Errorf("ref: %s: unsupported PSTB version %d / header length %d", path, version, headerLen)
	}
	pos := 12 + headerLen
	if len(data) < pos+4 {
		return nil, fmt.Errorf("ref: %s: truncated header", path)
	}
	if le.Uint32(data[pos:]) != crc32.Checksum(data[:pos], castagnoli) {
		return nil, fmt.Errorf("ref: %s: header checksum mismatch", path)
	}
	hdr := data[12:pos]
	pos += 4
	nnz := int(le.Uint64(hdr[0:8]))
	if nnz < 0 || nnz > len(data)/(4*(order+1)) {
		return nil, fmt.Errorf("ref: %s: header claims %d non-zeros in a %d-byte file", path, nnz, len(data))
	}
	t := &COO{Dims: make([]uint32, order), Inds: make([][]uint32, order)}
	for n := range t.Dims {
		t.Dims[n] = le.Uint32(hdr[8+4*n:])
		t.Inds[n] = make([]uint32, 0, nnz)
	}
	t.Vals = make([]float32, 0, nnz)

	// section decodes one payload section of count non-zeros at off after
	// checking its checksum.
	section := func(off, count int, sum uint32) error {
		n := 4 * (order + 1) * count
		if off < 0 || off+n > len(data) {
			return fmt.Errorf("ref: %s: truncated payload", path)
		}
		if crc32.Checksum(data[off:off+n], castagnoli) != sum {
			return fmt.Errorf("ref: %s: payload checksum mismatch", path)
		}
		for m := 0; m < order; m++ {
			for i := 0; i < count; i++ {
				t.Inds[m] = append(t.Inds[m], le.Uint32(data[off:]))
				off += 4
			}
		}
		for i := 0; i < count; i++ {
			t.Vals = append(t.Vals, math.Float32frombits(le.Uint32(data[off:])))
			off += 4
		}
		return nil
	}

	if version == 2 {
		end := pos + 4*(order+1)*nnz
		if len(data) < end+4 {
			return nil, fmt.Errorf("ref: %s: truncated payload", path)
		}
		if err := section(pos, nnz, le.Uint32(data[end:])); err != nil {
			return nil, err
		}
		return t, nil
	}
	tiles := int(le.Uint32(hdr[16+4*order:]))
	entry := 28 + 8*order
	dirEnd := pos + tiles*entry
	if len(data) < dirEnd+4 {
		return nil, fmt.Errorf("ref: %s: truncated tile directory", path)
	}
	if le.Uint32(data[dirEnd:]) != crc32.Checksum(data[pos:dirEnd], castagnoli) {
		return nil, fmt.Errorf("ref: %s: tile directory checksum mismatch", path)
	}
	for i := 0; i < tiles; i++ {
		e := data[pos+i*entry:]
		count, off, sum := int(le.Uint32(e[8:12])), int(le.Uint64(e[12:20])), le.Uint32(e[24:28])
		if err := section(off, count, sum); err != nil {
			return nil, err
		}
	}
	if len(t.Vals) != nnz {
		return nil, fmt.Errorf("ref: %s: tiles hold %d non-zeros, header says %d", path, len(t.Vals), nnz)
	}
	return t, nil
}
