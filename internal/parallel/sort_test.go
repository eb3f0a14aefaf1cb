package parallel

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/obs"
)

// oracleSort is the comparator sort SortColumns replaced, kept as the
// test oracle: sort.SliceStable over the lexicographic predicate on the
// same key columns. Both sorts are stable, so the permutations must be
// equal element for element, not merely equivalent.
func oracleSort(n int, cols [][]uint32) []int32 {
	perm := make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	sort.SliceStable(perm, func(i, j int) bool {
		a, b := perm[i], perm[j]
		for _, col := range cols {
			if col[a] != col[b] {
				return col[a] < col[b]
			}
		}
		return false
	})
	return perm
}

func checkAgainstOracle(t *testing.T, name string, n int, cols [][]uint32) {
	t.Helper()
	got, want := SortColumns(n, cols), oracleSort(n, cols)
	if !slices.Equal(got, want) {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: n=%d cols=%d: position %d holds element %d, oracle says %d",
					name, n, len(cols), i, got[i], want[i])
			}
		}
		t.Fatalf("%s: n=%d: length %d, want %d", name, n, len(got), len(want))
	}
}

// withThreads runs f under each worker count the suite cares about.
func withThreads(t *testing.T, f func(t *testing.T)) {
	orig := NumThreads()
	defer SetNumThreads(orig)
	for _, threads := range []int{1, 2, 3, 8} {
		SetNumThreads(threads)
		t.Run(fmt.Sprintf("threads=%d", threads), f)
	}
}

func column(n int, gen func(i int) uint32) []uint32 {
	col := make([]uint32, n)
	for i := range col {
		col[i] = gen(i)
	}
	return col
}

// The five TestSortInt32s* tests keep the names they had when they pinned
// the comparator merge sort (parallel.SortInt32s), so the suite's test
// ids stay stable; they now pin SortColumns on the same scenarios.

func TestSortInt32sSmall(t *testing.T) {
	got := SortColumns(4, [][]uint32{{5, 3, 8, 1}})
	if want := []int32{3, 1, 0, 2}; !slices.Equal(got, want) {
		t.Fatalf("perm = %v, want %v", got, want)
	}
}

func TestSortInt32sLargeMatchesStdlib(t *testing.T) {
	// Large enough to take the chunked path; many duplicates.
	n := 1 << 17
	rng := rand.New(rand.NewSource(1))
	withThreads(t, func(t *testing.T) {
		checkAgainstOracle(t, "dups", n, [][]uint32{column(n, func(int) uint32 { return uint32(rng.Intn(1000)) })})
	})
}

func TestSortInt32sStability(t *testing.T) {
	// With equal keys, earlier elements must come first.
	n := 1 << 16
	rng := rand.New(rand.NewSource(2))
	keys := column(n, func(int) uint32 { return uint32(rng.Intn(8)) })
	withThreads(t, func(t *testing.T) {
		perm := SortColumns(n, [][]uint32{keys})
		for i := 1; i < n; i++ {
			ka, kb := keys[perm[i-1]], keys[perm[i]]
			if ka > kb {
				t.Fatal("not sorted")
			}
			if ka == kb && perm[i-1] > perm[i] {
				t.Fatalf("unstable at %d: %d before %d", i, perm[i-1], perm[i])
			}
		}
	})
}

func TestSortInt32sThreadCounts(t *testing.T) {
	sizes := []int{0, 1, 2, sortSerialThreshold - 1, sortSerialThreshold, sortSerialThreshold + 1, 100_000}
	withThreads(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(int64(NumThreads())))
		for _, n := range sizes {
			checkAgainstOracle(t, "random31", n, [][]uint32{column(n, func(int) uint32 { return uint32(rng.Int31()) })})
			checkAgainstOracle(t, "two-columns", n, [][]uint32{
				column(n, func(int) uint32 { return uint32(rng.Intn(50)) }),
				column(n, func(int) uint32 { return rng.Uint32() }),
			})
		}
	})
}

func TestSortInt32sProperty(t *testing.T) {
	f := func(seed int64, nRaw uint32, ncolsRaw, dupRaw uint8) bool {
		n := int(nRaw % (1 << 16))
		rng := rand.New(rand.NewSource(seed))
		cols := make([][]uint32, int(ncolsRaw)%4+1)
		for c := range cols {
			cols[c] = column(n, func(int) uint32 { return uint32(rng.Intn(int(dupRaw) + 1)) })
		}
		return slices.Equal(SortColumns(n, cols), oracleSort(n, cols))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestSortColumnsAdversarialKeys covers the key shapes a data-derived
// digit plan can get wrong: nothing to sort on, columns of width zero,
// constant non-zero columns, full 32-bit keys including 2^32-1, and a
// single varying bit at either end of the word.
func TestSortColumnsAdversarialKeys(t *testing.T) {
	const top = ^uint32(0)
	withThreads(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(3))
		for _, n := range []int{0, 1, 2, 1000, sortSerialThreshold + 7} {
			zeros := column(n, func(int) uint32 { return 0 })
			cases := map[string][][]uint32{
				"no-columns":    nil,
				"all-zero":      {zeros},
				"all-equal":     {column(n, func(int) uint32 { return 0xDEADBEEF })},
				"full-width":    {column(n, func(i int) uint32 { return [...]uint32{top, 0, top - 1, 1, rng.Uint32()}[i%5] })},
				"top-bit-only":  {column(n, func(int) uint32 { return uint32(rng.Intn(2)) << 31 })},
				"low-bit-only":  {column(n, func(int) uint32 { return 0xFFFF0000 | uint32(rng.Intn(2)) })},
				"sparse-bits":   {column(n, func(int) uint32 { return rng.Uint32() & 0x80100401 })},
				"zero-between":  {column(n, func(int) uint32 { return uint32(rng.Intn(3)) }), zeros, column(n, func(int) uint32 { return rng.Uint32() })},
				"const-between": {column(n, func(int) uint32 { return uint32(rng.Intn(3)) }), column(n, func(int) uint32 { return top }), column(n, func(int) uint32 { return uint32(rng.Intn(3)) })},
				"descending":    {column(n, func(i int) uint32 { return uint32(n - i) })},
				"ascending":     {column(n, func(i int) uint32 { return uint32(i) })},
				"12-bit-digits": {column(n, func(int) uint32 { return uint32(rng.Intn(1 << 12)) })},
				"23-bit-digits": {column(n, func(int) uint32 { return uint32(rng.Intn(1 << 23)) })},
			}
			for name, cols := range cases {
				checkAgainstOracle(t, name, n, cols)
			}
		}
	})
}

// TestSortColumnsWideTuples sorts tuples of up to eight 32-bit columns —
// the shape of an order-8 Morton key, far beyond one machine word — with
// duplication at every prefix length.
func TestSortColumnsWideTuples(t *testing.T) {
	withThreads(t, func(t *testing.T) {
		rng := rand.New(rand.NewSource(4))
		n := sortSerialThreshold + 100
		for ncols := 1; ncols <= 8; ncols++ {
			cols := make([][]uint32, ncols)
			for c := range cols {
				span := uint32(2 + 3*c) // early columns tie often, late ones rarely
				cols[c] = column(n, func(int) uint32 { return rng.Uint32() % span * 0x01010101 })
			}
			checkAgainstOracle(t, fmt.Sprintf("%d-columns", ncols), n, cols)
		}
	})
}

// TestSortColumnsScratchReuse sorts different sizes and worker counts
// back to back so a pooled scratch of the wrong shape would surface.
func TestSortColumnsScratchReuse(t *testing.T) {
	orig := NumThreads()
	defer SetNumThreads(orig)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 30; i++ {
		SetNumThreads(1 + rng.Intn(6))
		n := rng.Intn(3 * sortSerialThreshold)
		checkAgainstOracle(t, "reuse", n, [][]uint32{column(n, func(int) uint32 { return rng.Uint32() >> uint(rng.Intn(32)) })})
	}
}

// TestSortColumnsSpanLabel pins the observability contract: one
// PhaseSort span per call, under the exported label.
func TestSortColumnsSpanLabel(t *testing.T) {
	tr := obs.New()
	obs.Enable(tr)
	defer obs.Disable()
	SortColumns(3, [][]uint32{{2, 1, 0}})
	var sorts int
	for _, s := range tr.Spans() {
		if s.Phase == obs.PhaseSort {
			sorts++
			if s.Name != SortSpanLabel {
				t.Fatalf("sort span named %q, want %q", s.Name, SortSpanLabel)
			}
		}
	}
	if sorts != 1 {
		t.Fatalf("recorded %d sort spans, want 1", sorts)
	}
}

// FuzzSortColumns drives the column sort with arbitrary key bytes: the
// first bytes pick the worker count, the column count and a mask that
// controls duplication; the rest are the keys (tiled past the chunking
// threshold when the first byte's top bit is set).
func FuzzSortColumns(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 0xFF, 5, 0, 0, 0, 3, 0, 0, 0, 8, 0, 0, 0, 1, 0, 0, 0})
	f.Add([]byte{3, 2, 0x0F, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0x80})
	f.Add(append([]byte{0x87, 3, 0x81}, []byte("a stable sort keeps equal keys in input order....")...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		orig := NumThreads()
		defer SetNumThreads(orig)
		data0 := data[0]
		SetNumThreads(int(data0)%8 + 1)
		ncols := int(data[1])%5 + 1
		mask := uint32(data[2]) * 0x01010101
		data = data[3:]
		base := len(data) / (4 * ncols)
		n := base
		if data0 >= 128 && base > 0 {
			// Tile the keys past the chunking threshold: periodic keys
			// are all duplicates, the hard case for stability.
			n = (sortSerialThreshold/base + 1) * base
		}
		cols := make([][]uint32, ncols)
		for c := range cols {
			cols[c] = column(n, func(i int) uint32 { return binary.LittleEndian.Uint32(data[4*(c*base+i%base):]) & mask })
		}
		if got, want := SortColumns(n, cols), oracleSort(n, cols); !slices.Equal(got, want) {
			t.Fatalf("threads=%d cols=%d n=%d mask=%#x: got %v, oracle %v", NumThreads(), ncols, n, mask, got, want)
		}
	})
}
