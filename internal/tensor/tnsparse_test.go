package tensor

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// genTNSBytes renders a deterministic random tensor to .tns text,
// sprinkling comments and blank lines so shard splitting has to cope
// with non-data lines.
func genTNSBytes(tb testing.TB, dims []Index, nnz int, seed int64) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := RandomCOO(dims, nnz, rng)
	var buf bytes.Buffer
	buf.WriteString("# generated test tensor\n\n")
	if err := WriteTNS(&buf, x); err != nil {
		tb.Fatal(err)
	}
	buf.WriteString("# trailing comment\n")
	return buf.Bytes()
}

// TestParallelMatchesSerialByteIdentical is the acceptance check for the
// chunk-parallel parser: dims, index order, and value bits must be
// exactly what the serial parser produces, across thread counts and
// input shapes.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	inputs := map[string][]byte{
		"3d":          genTNSBytes(t, []Index{500, 400, 300}, 20000, 1),
		"4d":          genTNSBytes(t, []Index{50, 40, 30, 20}, 15000, 2),
		"order1":      genTNSBytes(t, []Index{100000}, 5000, 3),
		"comments":    []byte("# c\n1 1 1 1.5\n\n# c2\n2 2 2 -0.25\n"),
		"no-newline":  []byte("1 1 1 1.5\n2 3 4 2.5"),
		"crlf":        []byte("1 1 1 1.5\r\n2 3 4 2.5\r\n"),
		"extreme-val": []byte("1 1 1 0.30000001\n2 2 2 3.4028235e38\n3 3 3 1e-45\n"),
		"max-coord":   []byte("4294967295 1 1 1\n"),
	}
	for name, data := range inputs {
		want, err := parseTNSSerial(data)
		if err != nil {
			t.Fatalf("%s: serial: %v", name, err)
		}
		for _, threads := range []int{2, 3, 4, 7, 16, 64} {
			got, err := parseTNSParallel(data, threads)
			if err != nil {
				t.Fatalf("%s/t%d: parallel: %v", name, threads, err)
			}
			if !reflect.DeepEqual(want.Dims, got.Dims) {
				t.Fatalf("%s/t%d: dims %v != %v", name, threads, got.Dims, want.Dims)
			}
			if !reflect.DeepEqual(want.Vals, got.Vals) {
				t.Fatalf("%s/t%d: values differ", name, threads)
			}
			for n := range want.Inds {
				if !reflect.DeepEqual(want.Inds[n], got.Inds[n]) {
					t.Fatalf("%s/t%d: mode-%d indices differ", name, threads, n)
				}
			}
		}
	}
}

// TestParseTNSAutoParallel drives the public entry point over the
// parallel threshold with multiple workers configured (this test runs
// under -race in CI, covering the shard writes and the stitch copies).
func TestParseTNSAutoParallel(t *testing.T) {
	old := parallel.NumThreads()
	parallel.SetNumThreads(8)
	defer parallel.SetNumThreads(old)

	data := genTNSBytes(t, []Index{2000, 2000, 100}, 90000, 4)
	if len(data) < parallelTNSMinBytes {
		// Pad with comment lines to cross the threshold.
		pad := bytes.Repeat([]byte("# padding so the input crosses the parallel threshold\n"), 1+(parallelTNSMinBytes-len(data))/55)
		data = append(data, pad...)
	}
	want, err := parseTNSSerial(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseTNS(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Dims, got.Dims) || !reflect.DeepEqual(want.Vals, got.Vals) {
		t.Fatal("auto-parallel parse differs from serial")
	}
	for n := range want.Inds {
		if !reflect.DeepEqual(want.Inds[n], got.Inds[n]) {
			t.Fatalf("mode-%d indices differ", n)
		}
	}
}

// TestParallelErrorLineNumbers corrupts one line deep in a large input
// and checks the parallel parser reports the same global line number as
// the serial one.
func TestParallelErrorLineNumbers(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# header comment\n")
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&buf, "%d %d %d 1.0\n", i%97+1, i%89+1, i%83+1)
	}
	buf.WriteString("3 bad 1 1.0\n") // line 5002
	for i := 0; i < 5000; i++ {
		fmt.Fprintf(&buf, "%d %d %d 2.0\n", i%97+1, i%89+1, i%83+1)
	}
	data := buf.Bytes()
	_, serr := parseTNSSerial(data)
	if serr == nil || !strings.Contains(serr.Error(), "line 5002") {
		t.Fatalf("serial error %v should name line 5002", serr)
	}
	for _, threads := range []int{2, 5, 16} {
		_, perr := parseTNSParallel(data, threads)
		if perr == nil {
			t.Fatalf("t%d: expected error", threads)
		}
		if perr.Error() != serr.Error() {
			t.Fatalf("t%d: error %q, serial said %q", threads, perr, serr)
		}
	}
}

func TestParseTNSRejects(t *testing.T) {
	cases := map[string]string{
		"empty":           "",
		"comments only":   "# nothing\n\n# here\n",
		"zero coord":      "0 1 1.0\n",
		"bad coord":       "a 1 1.0\n",
		"plus coord":      "+1 1 1.0\n",
		"bad value":       "1 1 x\n",
		"ragged fields":   "1 1 1 1.0\n1 1 2.0\n",
		"value only":      "3.5\n",
		"negative coord":  "-1 1 1.0\n",
		"coord overflow":  "4294967296 1 1.0\n",
		"coord overflow2": "99999999999999999999 1 1.0\n",
	}
	for name, in := range cases {
		if _, err := ParseTNS([]byte(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestWriteTNSFloat32RoundTrip is the regression test for the %g
// formatting bug: values like 0.30000001 must survive a write→read
// round trip bit-exactly.
func TestWriteTNSFloat32RoundTrip(t *testing.T) {
	vals := []Value{0.30000001, 0.1, 1.0 / 3.0, 3.4028235e38, 1.1754944e-38, 1e-45, -2.7182817}
	x := NewCOO([]Index{uint32(len(vals))}, len(vals))
	for i, v := range vals {
		x.Append([]Index{Index(i)}, v)
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := ParseTNS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if y.NNZ() != len(vals) {
		t.Fatalf("nnz %d, want %d", y.NNZ(), len(vals))
	}
	for i, v := range vals {
		if got := y.Vals[i]; got != v {
			t.Errorf("value %d: wrote %v, read back %v", i, v, got)
		}
	}
}

// TestTNSValuesMatchStrconv drives the record scanner's float32 fast
// path with fixed seeds: shortest-form float32s of random bit patterns
// must survive WriteTNS → ParseTNS bit for bit, and random decimal
// lines — 1–17 digits with a random sign and point, and decimals at or
// next to float32 halfway points — must read as strconv.ParseFloat(·,
// 32) reads them.
func TestTNSValuesMatchStrconv(t *testing.T) {
	rng := rand.New(rand.NewSource(49))
	const n = 50_000
	x := NewCOO([]Index{n}, n)
	for i := 0; i < n; i++ {
		v := math.Float32frombits(rng.Uint32())
		if f := float64(v); math.IsNaN(f) || math.IsInf(f, 0) {
			v = Value(i)
		}
		x.Append([]Index{Index(i)}, v)
	}
	var buf bytes.Buffer
	if err := WriteTNS(&buf, x); err != nil {
		t.Fatal(err)
	}
	y, err := ParseTNS(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !identicalBits(x, y) {
		t.Fatal("WriteTNS → ParseTNS changed a value's bits")
	}

	var toks []string
	for i := 0; i < n; i++ {
		d := make([]byte, 1+rng.Intn(17))
		for j := range d {
			d[j] = byte('0' + rng.Intn(10))
		}
		tok := string(d)
		if p := rng.Intn(len(d) + 2); p <= len(d) {
			tok = tok[:p] + "." + tok[p:]
		}
		if rng.Intn(2) == 0 {
			tok = "-" + tok
		}
		toks = append(toks, tok)

		// A float32 halfway point in [1/16, 2), written out exactly
		// and as the nearest 15-digit decimal, whose float64 quotient
		// is often the halfway point itself.
		lo := math.Float32frombits(uint32(123+rng.Intn(5))<<23 | rng.Uint32()&(1<<23-1))
		mid := (float64(lo) + float64(math.Nextafter32(lo, 2))) / 2
		toks = append(toks, strconv.FormatFloat(mid, 'f', -1, 64))
		if mid < 1 {
			toks = append(toks, strconv.FormatFloat(mid, 'f', 15, 64)[1:])
		} else {
			toks = append(toks, strconv.FormatFloat(mid, 'f', 14, 64))
		}
	}
	var lines bytes.Buffer
	for _, tok := range toks {
		lines.WriteString("1 " + tok + "\n")
	}
	z, err := ParseTNS(lines.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for i, tok := range toks {
		want, err := strconv.ParseFloat(tok, 32)
		if err != nil {
			t.Fatalf("%q: %v", tok, err)
		}
		if got := z.Vals[i]; math.Float32bits(got) != math.Float32bits(Value(want)) {
			t.Fatalf("%q read as %v (%#x), strconv says %v (%#x)", tok, got, math.Float32bits(got), want, math.Float32bits(Value(want)))
		}
	}
}

// TestParseTNSAllocs pins the pre-sized builders: the serial parse
// makes as many allocations at 40 000 lines as at 1 000.
func TestParseTNSAllocs(t *testing.T) {
	small := genTNSBytes(t, []Index{300, 300, 30}, 1_000, 5)
	large := genTNSBytes(t, []Index{6000, 6000, 51}, 40_000, 5)
	allocs := func(data []byte) float64 {
		return testing.AllocsPerRun(5, func() {
			if _, err := parseTNSSerial(data); err != nil {
				t.Fatal(err)
			}
		})
	}
	if a, b := allocs(small), allocs(large); a != b {
		t.Fatalf("parseTNSSerial: %v allocations at 1 000 lines, %v at 40 000", a, b)
	}
}

// BenchmarkParseTNS compares the serial and chunk-parallel parsers on a
// ~1M-non-zero input. On a multicore host the parallel path should be
// ≥2× faster; on a single-core host it degenerates to serial speed.
func BenchmarkParseTNS(b *testing.B) {
	data := genTNSBytes(b, []Index{3000, 3000, 1000}, 1_000_000, 9)
	b.Logf("input: %.1f MB", float64(len(data))/1e6)
	b.Run("serial", func(b *testing.B) {
		b.SetBytes(int64(len(data)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := parseTNSSerial(data); err != nil {
				b.Fatal(err)
			}
		}
	})
	for _, threads := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("parallel-%d", threads), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := parseTNSParallel(data, threads); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
