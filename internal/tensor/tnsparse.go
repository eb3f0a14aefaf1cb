package tensor

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"unsafe"

	"repro/internal/parallel"
)

// parallelTNSMinBytes is the input size below which ParseTNS parses
// serially: splitting and stitching overhead beats the gain on small
// files.
const parallelTNSMinBytes = 1 << 20

// ParseTNS parses FROSTT .tns bytes into a COO tensor. Large inputs are
// split into newline-aligned byte ranges parsed concurrently on
// parallel.For workers and stitched back in order, so the result — dims,
// entry order, and values — is identical to a serial parse. Text parsing
// dominates load time for the paper's 100M-non-zero tensors, which is
// why this path is parallel (and why the PSTB binary format exists at
// all).
func ParseTNS(data []byte) (*COO, error) {
	threads := parallel.NumThreads()
	if len(data) < parallelTNSMinBytes || threads <= 1 {
		return parseTNSSerial(data)
	}
	return parseTNSParallel(data, threads)
}

// parseTNSSerial is the single-worker reference parser: one shard
// covering the whole input. parseTNSParallel must produce byte-identical
// results (tnsparse_test.go asserts this).
func parseTNSSerial(data []byte) (*COO, error) {
	order, err := tnsOrder(data)
	if err != nil {
		return nil, err
	}
	var sh tnsShard
	parseTNSShard(data, order, &sh)
	if sh.err != nil {
		return nil, fmt.Errorf("tns: line %d: %v", sh.errLine, sh.err)
	}
	return &COO{Dims: sh.dims, Inds: sh.inds, Vals: sh.vals}, nil
}

func parseTNSParallel(data []byte, threads int) (*COO, error) {
	order, err := tnsOrder(data)
	if err != nil {
		return nil, err
	}
	// Chunk boundaries: near-equal byte ranges advanced to the next
	// newline so no line straddles two shards.
	bounds := make([]int, 1, threads+1)
	for w := 1; w < threads; w++ {
		p := len(data) / threads * w
		if p <= bounds[len(bounds)-1] {
			continue
		}
		nl := bytes.IndexByte(data[p:], '\n')
		if nl < 0 {
			break
		}
		p += nl + 1
		if p < len(data) && p > bounds[len(bounds)-1] {
			bounds = append(bounds, p)
		}
	}
	bounds = append(bounds, len(data))
	nshards := len(bounds) - 1
	shards := make([]tnsShard, nshards)
	opt := parallel.Options{Schedule: parallel.Static, Threads: nshards}
	parallel.For(nshards, opt, func(lo, hi, _ int) {
		for s := lo; s < hi; s++ {
			parseTNSShard(data[bounds[s]:bounds[s+1]], order, &shards[s])
		}
	})

	// Report the first error in input order; every shard before it
	// completed, so its global line number is exact.
	lineBase := 0
	for s := range shards {
		if shards[s].err != nil {
			return nil, fmt.Errorf("tns: line %d: %v", lineBase+shards[s].errLine, shards[s].err)
		}
		lineBase += shards[s].lines
	}

	total := 0
	for s := range shards {
		total += len(shards[s].vals)
	}
	dims := make([]Index, order)
	for s := range shards {
		for n, d := range shards[s].dims {
			if d > dims[n] {
				dims[n] = d
			}
		}
	}
	t := &COO{
		Dims: dims,
		Inds: make([][]Index, order),
		Vals: make([]Value, total),
	}
	for n := range t.Inds {
		t.Inds[n] = make([]Index, total)
	}
	offs := make([]int, nshards+1)
	for s := range shards {
		offs[s+1] = offs[s] + len(shards[s].vals)
	}
	parallel.For(nshards, opt, func(lo, hi, _ int) {
		for s := lo; s < hi; s++ {
			copy(t.Vals[offs[s]:offs[s+1]], shards[s].vals)
			for n := 0; n < order; n++ {
				copy(t.Inds[n][offs[s]:offs[s+1]], shards[s].inds[n])
			}
		}
	})
	return t, nil
}

// tnsShard is one worker's private builder: entries in input order plus
// the per-mode maxima needed to infer dims.
type tnsShard struct {
	inds    [][]Index
	vals    []Value
	dims    []Index
	lines   int // lines scanned, including blanks and comments
	err     error
	errLine int // 1-based line of err within this shard
}

// tnsOrder finds the first data line and returns its field count minus
// one — the tensor order every other line must match.
func tnsOrder(data []byte) (int, error) {
	line := 0
	for len(data) > 0 {
		var ln []byte
		if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
			ln, data = data[:nl], data[nl+1:]
		} else {
			ln, data = data, nil
		}
		line++
		ln = trimTNSSpace(ln)
		if len(ln) == 0 || ln[0] == '#' {
			continue
		}
		order := countTNSFields(ln) - 1
		if order < 1 {
			return 0, fmt.Errorf("tns: line %d: need at least one coordinate and a value", line)
		}
		if order > 255 {
			return 0, fmt.Errorf("tns: line %d: order %d exceeds format limit of 255", line, order)
		}
		return order, nil
	}
	return 0, fmt.Errorf("tns: empty input")
}

// parseTNSShard parses one newline-aligned byte range into sh. On a bad
// line it records the cause and the shard-local line number but still
// leaves sh.lines as the count scanned so far (callers only need full
// counts for shards before the first error). The columns are sized once
// to the range's line count, an upper bound on its entries, so the parse
// makes the same few allocations at any size.
func parseTNSShard(data []byte, order int, sh *tnsShard) {
	lines := bytes.Count(data, []byte{'\n'}) + 1
	sh.inds = make([][]Index, order)
	for n := range sh.inds {
		sh.inds[n] = make([]Index, 0, lines)
	}
	sh.vals = make([]Value, 0, lines)
	sh.dims = make([]Index, order)
	coords := make([]Index, order)
	for len(data) > 0 {
		sh.lines++
		v, rest, ok := scanTNSRecord(data, coords)
		if !ok {
			// Blank, comment, irregular or malformed: the field-by-field
			// parser decides which, and words the error.
			ln := data
			if nl := bytes.IndexByte(data, '\n'); nl >= 0 {
				ln, rest = data[:nl], data[nl+1:]
			} else {
				rest = nil
			}
			ln = trimTNSSpace(ln)
			if len(ln) == 0 || ln[0] == '#' {
				data = rest
				continue
			}
			if v, sh.err = parseTNSDataLine(ln, order, coords); sh.err != nil {
				sh.errLine = sh.lines
				return
			}
		}
		data = rest
		for n, i := range coords {
			sh.inds[n] = append(sh.inds[n], i)
			if i+1 > sh.dims[n] {
				sh.dims[n] = i + 1
			}
		}
		sh.vals = append(sh.vals, v)
	}
}

// scanTNSRecord parses the data line at the head of data in one pass and
// returns the input after it. It accepts only the regular form that
// WriteTNS emits: len(coords) coordinates of 1–9 digits, each followed by
// one ' ', then an optional '-' and digits with at most one '.', then
// '\n' or the end of the input. Anything else — other spaces or runs of
// them, a '+', an exponent, inf or nan, a zero or 10-digit coordinate, a
// comment, a blank line, a wrong field count — is !ok, and the caller
// hands the line to parseTNSDataLine, so the lines accepted and the
// errors given are that parser's.
func scanTNSRecord(data []byte, coords []Index) (v Value, rest []byte, ok bool) {
	i := 0
	for n := range coords {
		var u Index // 9 digits cannot overflow it
		j := i
		for ; j < len(data) && data[j]-'0' <= 9; j++ {
			u = u*10 + Index(data[j]-'0')
		}
		if j == i || j-i > 9 || u == 0 || j == len(data) || data[j] != ' ' {
			return 0, nil, false
		}
		coords[n] = u - 1
		i = j + 1
	}
	tok := i
	neg := i < len(data) && data[i] == '-'
	if neg {
		i++
	}
	var m uint64
	digits, dot := 0, -1
	for ; i < len(data); i++ {
		if c := data[i]; c-'0' <= 9 {
			m = m*10 + uint64(c-'0')
			digits++
		} else if c == '.' && dot < 0 {
			dot = i
		} else {
			break
		}
	}
	if digits == 0 {
		return 0, nil, false
	}
	end := i
	if i < len(data) {
		if data[i] != '\n' {
			return 0, nil, false
		}
		rest = data[i+1:]
	}
	frac := 0
	if dot >= 0 {
		frac = end - dot - 1
	}
	if f, exact := tnsDecimal(m, digits, frac); exact {
		if v = Value(f); neg {
			v = -v // last, so that "-0" is -0
		}
		return v, rest, true
	}
	f, err := strconv.ParseFloat(bstr(data[tok:end]), 32)
	return Value(f), rest, err == nil
}

// pow10 holds the scales 10^frac of a mantissa of at most 15 digits, all
// exact in float64.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e13, 1e14, 1e15}

// tnsDecimal returns m / 10^frac, for a mantissa of the given number of
// decimal digits, as a float64 whose float32 conversion equals
// strconv.ParseFloat's correctly rounded float32 of the decimal — or
// exact=false when it cannot promise that. With at most 15 digits, m and
// 10^frac are exact in float64, so f is the one correctly rounded
// division of the exact quotient q. Rounding f to float32 then rounds q
// the same way unless f lies exactly on a float32 halfway point: were q
// on one side of a halfway point and f on the other, that point (a
// float64) would be nearer to q than f. Non-zero |f| lies in [1e-15,
// 1e15), inside float32's normal range, so the halfway test is the 29
// float64 mantissa bits a float32 drops being 1 followed by 28 zeros.
func tnsDecimal(m uint64, digits, frac int) (f float64, exact bool) {
	if digits > 15 {
		return 0, false
	}
	f = float64(m) / pow10[frac]
	return f, math.Float64bits(f)&(1<<29-1) != 1<<28
}

// parseTNSDataLine parses "c1 c2 ... cN value" into coords (0-based) and
// the value. ln has been trimmed and is non-empty.
func parseTNSDataLine(ln []byte, order int, coords []Index) (Value, error) {
	rest := ln
	for n := 0; n < order; n++ {
		var tok []byte
		tok, rest = nextTNSField(rest)
		if tok == nil {
			return 0, fmt.Errorf("%d fields, want %d", countTNSFields(ln), order+1)
		}
		i, err := parseTNSCoord(tok)
		if err != nil {
			return 0, err
		}
		coords[n] = i
	}
	tok, rest := nextTNSField(rest)
	if tok == nil {
		return 0, fmt.Errorf("%d fields, want %d", countTNSFields(ln), order+1)
	}
	if extra, _ := nextTNSField(rest); extra != nil {
		return 0, fmt.Errorf("%d fields, want %d", countTNSFields(ln), order+1)
	}
	v, err := strconv.ParseFloat(bstr(tok), 32)
	if err != nil {
		return 0, fmt.Errorf("bad value %q: %v", tok, err)
	}
	return Value(v), nil
}

// parseTNSCoord converts a 1-based text coordinate to a 0-based Index.
// It rejects zero (the format is 1-based) and anything above 2^32-1,
// whose -1/+1 round trip through the 32-bit Index type would wrap and
// silently corrupt the inferred dims.
func parseTNSCoord(tok []byte) (Index, error) {
	var u uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("bad coordinate %q: invalid syntax", tok)
		}
		u = u*10 + uint64(c-'0')
		if u > math.MaxUint32 {
			return 0, fmt.Errorf("coordinate %q overflows the 32-bit index space", tok)
		}
	}
	if u == 0 {
		return 0, fmt.Errorf("coordinates are 1-based, got 0")
	}
	return Index(u - 1), nil
}

// nextTNSField returns the next whitespace-separated token and the
// remainder, or (nil, rest) when none is left.
func nextTNSField(b []byte) (tok, rest []byte) {
	i := 0
	for i < len(b) && isTNSSpace(b[i]) {
		i++
	}
	if i == len(b) {
		return nil, nil
	}
	j := i
	for j < len(b) && !isTNSSpace(b[j]) {
		j++
	}
	return b[i:j], b[j:]
}

func countTNSFields(b []byte) int {
	n := 0
	for {
		var tok []byte
		tok, b = nextTNSField(b)
		if tok == nil {
			return n
		}
		n++
	}
}

func trimTNSSpace(b []byte) []byte {
	for len(b) > 0 && isTNSSpace(b[0]) {
		b = b[1:]
	}
	for len(b) > 0 && isTNSSpace(b[len(b)-1]) {
		b = b[:len(b)-1]
	}
	return b
}

func isTNSSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\r' || c == '\v' || c == '\f'
}

// bstr views a byte slice as a string without copying (the slice must
// not be mutated while the string is live; parse fields never are).
func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}
