package hicoo

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// MortonLess reports whether block-index tuple a precedes b on the
// N-dimensional Morton (Z-order) curve, i.e. when their coordinate bits
// are interleaved mode-major. It uses Chan's most-significant-differing-
// bit comparison, avoiding explicit interleaving (which would need 128
// bits for a 4th-order tensor). The conversions do not call it — they
// radix-sort on the packed interleaved key (blocksort.go) — it defines
// the order they must produce, and the tests compare against it.
func MortonLess(a, b []tensor.Index) bool {
	msd := 0
	var x tensor.Index
	for n := range a {
		y := a[n] ^ b[n]
		if lessMSB(x, y) {
			msd = n
			x = y
		}
	}
	return a[msd] < b[msd]
}

// lessMSB reports whether the most significant set bit of x is strictly
// below that of y (treating 0 as having no set bit).
func lessMSB(x, y tensor.Index) bool {
	return x < y && x < x^y
}

// MortonEncodeBits returns the bit-interleaved Morton key of idx as a
// big-endian bit slice (one byte per bit, value 0 or 1): bit 31 of mode 0,
// bit 31 of mode 1, …, bit 0 of mode N-1: an independently verifiable
// reference for MortonLess. The conversions pack the same bits, minus
// those no index has set, into 32-bit key columns.
func MortonEncodeBits(idx []tensor.Index) []byte {
	bits := make([]byte, 0, 32*len(idx))
	for b := 31; b >= 0; b-- {
		for n := range idx {
			bits = append(bits, byte((idx[n]>>uint(b))&1))
		}
	}
	return bits
}

func randomTensor(seed int64, order, maxDim, nnz int) *tensor.COO {
	rng := rand.New(rand.NewSource(seed))
	dims := make([]tensor.Index, order)
	for n := range dims {
		dims[n] = tensor.Index(rng.Intn(maxDim) + 1)
	}
	return tensor.RandomCOO(dims, nnz, rng)
}

func TestMortonLessAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		order := rng.Intn(3) + 2
		a := make([]tensor.Index, order)
		b := make([]tensor.Index, order)
		for n := 0; n < order; n++ {
			a[n] = tensor.Index(rng.Intn(1 << 12))
			b[n] = tensor.Index(rng.Intn(1 << 12))
		}
		got := MortonLess(a, b)
		// Reference: compare interleaved bit strings lexicographically.
		ab, bb := MortonEncodeBits(a), MortonEncodeBits(b)
		want := false
		for i := range ab {
			if ab[i] != bb[i] {
				want = ab[i] < bb[i]
				break
			}
		}
		if got != want {
			t.Fatalf("MortonLess(%v,%v) = %v, want %v", a, b, got, want)
		}
	}
}

func TestMortonLessIrreflexive(t *testing.T) {
	a := []tensor.Index{5, 9, 1023}
	if MortonLess(a, a) {
		t.Fatal("MortonLess(a,a) must be false")
	}
}

func TestFromCOORoundTrip(t *testing.T) {
	x := randomTensor(2, 3, 300, 500)
	h := FromCOO(x, DefaultBlockBits)
	if err := h.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if h.NNZ() != x.NNZ() {
		t.Fatalf("NNZ = %d, want %d", h.NNZ(), x.NNZ())
	}
	y := h.ToCOO()
	if d := tensor.AbsDiff(x, y); d != 0 {
		t.Fatalf("roundtrip diff %v", d)
	}
}

func TestFromCOORoundTripProperty(t *testing.T) {
	f := func(seed int64, orderRaw, bitsRaw uint8) bool {
		order := int(orderRaw)%3 + 2 // 2..4
		bits := uint8(bitsRaw)%MaxBlockBits + 1
		x := randomTensor(seed, order, 100, 200)
		h := FromCOO(x, bits)
		if h.Validate() != nil {
			return false
		}
		return tensor.AbsDiff(x, h.ToCOO()) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestFromCOOMortonBlockOrder(t *testing.T) {
	x := randomTensor(3, 3, 1000, 400)
	h := FromCOO(x, 7)
	bi := make([]tensor.Index, h.Order())
	bj := make([]tensor.Index, h.Order())
	for b := 1; b < h.NumBlocks(); b++ {
		for n := 0; n < h.Order(); n++ {
			bi[n] = h.BInds[n][b-1]
			bj[n] = h.BInds[n][b]
		}
		if MortonLess(bj, bi) {
			t.Fatalf("blocks %d,%d out of Morton order", b-1, b)
		}
		if !MortonLess(bi, bj) && !MortonLess(bj, bi) {
			t.Fatalf("duplicate block at %d", b)
		}
	}
}

func TestFromCOOBadBlockBitsPanics(t *testing.T) {
	x := randomTensor(4, 3, 10, 10)
	for _, bits := range []uint8{0, 9, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bits=%d: expected panic", bits)
				}
			}()
			FromCOO(x, bits)
		}()
	}
}

func TestHiCOOStorageSmallerOnClustered(t *testing.T) {
	// A dense-ish cube: many non-zeros share blocks, HiCOO must compress.
	rng := rand.New(rand.NewSource(9))
	x := tensor.RandomCOO([]tensor.Index{64, 64, 64}, 30000, rng)
	h := FromCOO(x, 7)
	st := h.ComputeStats()
	if st.CompressionVsCOO <= 1 {
		t.Fatalf("expected compression > 1 on clustered tensor, got %v (blocks=%d nnz=%d)",
			st.CompressionVsCOO, st.NumBlocks, st.NNZ)
	}
}

func TestHiCOOStorageWorseOnHyperSparse(t *testing.T) {
	// Hyper-sparse: nearly every block holds one non-zero, so HiCOO's
	// block overhead makes it larger than COO (the motivation for gHiCOO).
	rng := rand.New(rand.NewSource(10))
	x := tensor.RandomCOO([]tensor.Index{1 << 20, 1 << 20, 1 << 20}, 2000, rng)
	h := FromCOO(x, 7)
	st := h.ComputeStats()
	if st.SingletonBlocks < st.NumBlocks*9/10 {
		t.Fatalf("expected mostly singleton blocks, got %d/%d", st.SingletonBlocks, st.NumBlocks)
	}
	if st.CompressionVsCOO >= 1 {
		t.Fatalf("expected HiCOO larger than COO on hyper-sparse tensor, ratio %v", st.CompressionVsCOO)
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	x := randomTensor(11, 3, 50, 100)
	h := FromCOO(x, 5)
	h.EInds[0][0] = 200 // exceeds block size 32
	if err := h.Validate(); err == nil {
		t.Fatal("Validate accepted oversized element index")
	}
}

func TestHiCOOIndexReconstruction(t *testing.T) {
	x := tensor.NewCOO([]tensor.Index{300, 300, 300}, 2)
	x.AppendIdx3(130, 5, 299, 1.5)
	x.AppendIdx3(0, 255, 128, 2.5)
	h := FromCOO(x, 7) // B=128
	found := 0
	for b := 0; b < h.NumBlocks(); b++ {
		for e := h.BPtr[b]; e < h.BPtr[b+1]; e++ {
			i := h.Index(0, b, e)
			j := h.Index(1, b, e)
			k := h.Index(2, b, e)
			if i == 130 && j == 5 && k == 299 && h.Vals[e] == 1.5 {
				found++
			}
			if i == 0 && j == 255 && k == 128 && h.Vals[e] == 2.5 {
				found++
			}
		}
	}
	if found != 2 {
		t.Fatalf("reconstructed %d/2 entries", found)
	}
}
