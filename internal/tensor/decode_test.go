package tensor

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cpu"
)

// bodySides and withAVX2 are tensortest.BodySides and WithAVX2, which
// this package's tests cannot import (tensortest imports tensor): the
// values of cpu.AVX2 a test runs under — false (the Go loops, the
// oracle), and true where the host has the column bodies — and a run
// under one of them.
func bodySides() []bool {
	if cpu.AVX2 {
		return []bool{false, true}
	}
	return []bool{false}
}

func withAVX2(on bool, f func()) {
	defer func(was bool) { cpu.AVX2 = was }(cpu.AVX2)
	cpu.AVX2 = on
	f()
}

// columnResult is what the four column loops make of one column's bytes.
type columnResult struct {
	inds           []Index
	vals           []Value
	lo, hi, maxIdx Index
	finite, allFin bool
}

// decodeColumn runs decodeU32, decodeF32, maxIndex and allFinite over
// the bytes at src into the given arrays.
func decodeColumn(src []byte, inds []Index, vals []Value) columnResult {
	r := columnResult{inds: inds, vals: vals}
	r.lo, r.hi = decodeU32(inds, src)
	r.finite = decodeF32(vals, src)
	r.maxIdx, r.allFin = maxIndex(inds), allFinite(vals)
	return r
}

// TestDecodeBodyBitIdentical holds the column bodies to their Go loops
// (DESIGN.md §26): the AVX2 side of decodeU32, decodeF32, maxIndex and
// allFinite must store the same bits and reduce to the same (lo, hi) and
// finiteness as the Go side, on every column length from 0 to 130, around
// one call (cpu.CallNNZ) and over several, read from src at each byte
// offset, with every edge pattern planted at the first, a middle and the
// last entry of a column whose other entries lie inside [100, dim).
func TestDecodeBodyBitIdentical(t *testing.T) {
	const dim = 1000
	patterns := []struct {
		name string
		bits uint32
	}{
		{"0", 0}, {"1", 1}, {"dim-1", dim - 1}, {"2^32-1", math.MaxUint32},
		{"MaxFloat32", 0x7F7FFFFF}, {"+Inf", 0x7F800000}, {"-Inf", 0xFF800000},
		{"quiet NaN", 0x7FC00000}, {"signalling NaN", 0x7F800001}, {"-0", 0x80000000},
		{"subnormal", 0x00000001}, {"-subnormal", 0x807FFFFF},
	}
	lengths := []int{cpu.CallNNZ - 1, cpu.CallNNZ, cpu.CallNNZ + 1, 3*cpu.CallNNZ + 5}
	for n := 130; n >= 0; n-- {
		lengths = append([]int{n}, lengths...)
	}
	rng := rand.New(rand.NewSource(52))
	maxLen := slices.Max(lengths)
	buf := make([]byte, 4*maxLen+3)
	background := make([]uint32, maxLen)
	for i := range background {
		background[i] = 100 + uint32(rng.Intn(dim-100))
	}
	side := [2]struct {
		inds []Index
		vals []Value
	}{}
	for s := range side {
		side[s].inds, side[s].vals = make([]Index, maxLen), make([]Value, maxLen)
	}
	for _, n := range lengths {
		for off := 0; off < 4; off++ {
			src := buf[off : off+4*n]
			for i := 0; i < n; i++ {
				binary.LittleEndian.PutUint32(src[4*i:], background[i])
			}
			check := func(where string) {
				var got [2]columnResult
				for s, asm := range bodySides() {
					withAVX2(asm, func() {
						got[s] = decodeColumn(src, side[s].inds[:n], side[s].vals[:n])
					})
				}
				checkColumn(t, where, src, got[0])
				if g, w := got[1], got[0]; cpu.AVX2 {
					if g.lo != w.lo || g.hi != w.hi || g.finite != w.finite || g.maxIdx != w.maxIdx || g.allFin != w.allFin {
						t.Fatalf("%s: AVX2 (lo %d, hi %d, finite %v, maxIndex %d, allFinite %v), Go (%d, %d, %v, %d, %v)",
							where, g.lo, g.hi, g.finite, g.maxIdx, g.allFin, w.lo, w.hi, w.finite, w.maxIdx, w.allFin)
					}
					if !slices.Equal(g.inds, w.inds) || !identicalBits(&COO{Vals: g.vals}, &COO{Vals: w.vals}) {
						t.Fatalf("%s: the AVX2 side decoded other bits than the Go side", where)
					}
				}
			}
			check(fmt.Sprintf("%d entries at offset %d", n, off))
			for _, p := range patterns {
				for _, at := range []int{0, n / 2, n - 1}[:min(n, 3)] {
					binary.LittleEndian.PutUint32(src[4*at:], p.bits)
					check(fmt.Sprintf("%d entries at offset %d, %s at %d", n, off, p.name, at))
					binary.LittleEndian.PutUint32(src[4*at:], background[at])
				}
			}
		}
	}
}

// checkColumn holds the Go side to the entry-by-entry definition.
func checkColumn(t *testing.T, where string, src []byte, r columnResult) {
	t.Helper()
	lo, hi, finite := ^Index(0), Index(0), true
	for i := range r.inds {
		u := binary.LittleEndian.Uint32(src[4*i:])
		if r.inds[i] != u || math.Float32bits(r.vals[i]) != u {
			t.Fatalf("%s: Go side decoded entry %d as %#x and %#x, want %#x", where, i, r.inds[i], math.Float32bits(r.vals[i]), u)
		}
		lo, hi = min(lo, u), max(hi, u)
		f := float64(math.Float32frombits(u))
		finite = finite && !math.IsNaN(f) && !math.IsInf(f, 0)
	}
	if r.lo != lo || r.hi != hi || r.finite != finite || r.maxIdx != hi || r.allFin != finite {
		t.Fatalf("%s: Go side (lo %d, hi %d, finite %v, maxIndex %d, allFinite %v), want (%d, %d, %v, %d, %v)",
			where, r.lo, r.hi, r.finite, r.maxIdx, r.allFin, lo, hi, finite, hi, finite)
	}
}

// BenchmarkDecodeColumn times each column loop over one 12 500-entry
// column (an index column of the regular4d service tensor's flat file),
// per entry, on the Go loops and on the bodies:
//
//	go test -run '^$' -bench DecodeColumn -cpu 1 ./internal/tensor
func BenchmarkDecodeColumn(b *testing.B) {
	const n = 12_500
	src := make([]byte, 4*n)
	rand.New(rand.NewSource(1)).Read(src)
	for i := 0; i < n; i++ { // finite values, so no loop stops early
		binary.LittleEndian.PutUint32(src[4*i:], binary.LittleEndian.Uint32(src[4*i:])&0x3FFFFFFF)
	}
	inds, vals := make([]Index, n), make([]Value, n)
	decodeU32(inds, src)
	decodeF32(vals, src)
	for _, c := range []struct {
		name string
		run  func()
	}{
		{"decodeU32", func() { decodeU32(inds, src) }},
		{"decodeF32", func() { decodeF32(vals, src) }},
		{"maxIndex", func() { maxIndex(inds) }},
		{"allFinite", func() { allFinite(vals) }},
	} {
		for _, asm := range bodySides() {
			side := map[bool]string{false: "go", true: "avx2"}[asm]
			b.Run(c.name+"/"+side, func(b *testing.B) {
				withAVX2(asm, func() {
					for b.Loop() {
						c.run()
					}
				})
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/entry")
			})
		}
	}
}
