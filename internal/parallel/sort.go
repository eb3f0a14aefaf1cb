package parallel

import (
	"math/bits"
	"sync"

	"repro/internal/obs"
)

// sortSerialThreshold is the input size below which SortColumns runs on
// one worker; the per-pass fork/join only pays above it.
const sortSerialThreshold = 1 << 14

// sortDigitBits caps a radix digit: 2048 uint32 counters (8 KiB) per
// worker stay L1-resident, and a full 32-bit column takes three passes.
const sortDigitBits = 11

// SortSpanLabel names the PhaseSort span every SortColumns call records.
const SortSpanLabel = "parallel.SortColumns"

// SortColumns returns the permutation that stably sorts elements
// 0..n-1 by their key tuples (cols[0][i], cols[1][i], ...), cols[0] most
// significant; every column must hold n keys. Equal tuples keep their
// input order.
//
// Sorting index permutations is the pre-processing cost of every
// benchmark kernel (fiber sort, HiCOO Morton order, CSF and hierarchy
// construction), and the keys are small integers, so this is an LSD
// radix sort, not a comparison sort: columns are consumed least
// significant first, each split into digits of at most sortDigitBits
// bits. Which bits a column needs comes from an OR/AND reduction of its
// data, never from declared dimensions: bits equal across all keys are
// never sorted on, so a constant column costs one read and an
// out-of-range key still sorts correctly. Above sortSerialThreshold a
// pass runs over one contiguous chunk per worker (per-chunk histograms,
// one scan ordering buckets digit-major then chunk-major, stable
// scatter); below it one worker does the same on a single chunk.
func SortColumns(n int, cols [][]uint32) []int32 {
	sp := obs.Begin(SortSpanLabel, "", obs.PhaseSort, -1)
	defer sp.End()

	perm := make([]int32, n)
	chunks := 1
	if n >= sortSerialThreshold {
		chunks = ResolveThreads(n, Options{})
	}
	s := getSortScratch(n, chunks)
	defer sortScratchPool.Put(s)

	// src == nil stands for the identity permutation no pass has moved
	// yet; it is never materialized unless every pass is skipped.
	var src []int32
	dst, spare := perm, s.perm
	for c := len(cols) - 1; c >= 0; c-- {
		col := cols[c]
		varying := s.varyingBits(col)
		for lo := bits.TrailingZeros32(varying); lo < bits.Len32(varying); {
			// Split what is left of the column into equal digits.
			left := bits.Len32(varying) - lo
			passes := (left + sortDigitBits - 1) / sortDigitBits
			width := (left + passes - 1) / passes
			mask := uint32(1)<<width - 1
			if varying>>lo&mask != 0 {
				s.pass(src, dst, col, uint(lo), mask)
				if src == nil {
					src, dst = dst, spare
				} else {
					src, dst = dst, src
				}
			}
			lo += width
		}
	}
	switch {
	case src == nil:
		for i := range perm {
			perm[i] = int32(i)
		}
	case &src[0] != &perm[0]:
		copy(perm, src)
	}
	return perm
}

// sortScratch is the reusable working memory of one SortColumns call:
// the second permutation buffer, the digit of every element for the pass
// in flight, and one histogram per chunk. Pooled so repeated conversions
// allocate only the permutation they return.
type sortScratch struct {
	n      int
	chunks int
	perm   []int32
	digits []uint16
	hist   []uint32 // chunks × (1<<sortDigitBits), chunk-major
	or     []uint32 // per-chunk reductions of varyingBits
	and    []uint32
}

var sortScratchPool = sync.Pool{New: func() any { return new(sortScratch) }}

func getSortScratch(n, chunks int) *sortScratch {
	s := sortScratchPool.Get().(*sortScratch)
	if cap(s.perm) < n {
		s.perm = make([]int32, n)
		s.digits = make([]uint16, n)
	}
	if cap(s.hist) < chunks<<sortDigitBits {
		s.hist = make([]uint32, chunks<<sortDigitBits)
		s.or = make([]uint32, chunks)
		s.and = make([]uint32, chunks)
	}
	s.n, s.chunks = n, chunks
	s.perm, s.digits = s.perm[:n], s.digits[:n]
	return s
}

// each runs body once per chunk: inline for one chunk, else through For
// over the chunk numbers, so every schedule For may pick (it re-chunks
// static loops under cancellation or fault hooks) hands chunk c the same
// element range in every phase of a pass.
func (s *sortScratch) each(body func(c, lo, hi int)) {
	if s.chunks == 1 {
		body(0, 0, s.n)
		return
	}
	// For only fails on a cancelled Options.Ctx, and none is set.
	_ = For(s.chunks, Options{Threads: s.chunks}, func(clo, chi, _ int) {
		for c := clo; c < chi; c++ {
			body(c, c*s.n/s.chunks, (c+1)*s.n/s.chunks)
		}
	})
}

// varyingBits returns the bits of col that differ between at least two
// keys (OR of all keys minus their AND).
func (s *sortScratch) varyingBits(col []uint32) uint32 {
	s.each(func(c, lo, hi int) {
		or, and := uint32(0), ^uint32(0)
		for _, k := range col[lo:hi] {
			or |= k
			and &= k
		}
		s.or[c], s.and[c] = or, and
	})
	or, and := uint32(0), ^uint32(0)
	for c := 0; c < s.chunks; c++ {
		or |= s.or[c]
		and &= s.and[c]
	}
	return or &^ and
}

// pass stably redistributes src into dst by the digit
// (col[src[i]]>>shift)&mask; a nil src is the identity permutation.
func (s *sortScratch) pass(src, dst []int32, col []uint32, shift uint, mask uint32) {
	buckets := int(mask) + 1
	digits := s.digits
	s.each(func(c, lo, hi int) {
		hist := s.hist[c<<sortDigitBits:][:buckets]
		clear(hist)
		if src == nil {
			for i, k := range col[lo:hi] {
				d := k >> shift & mask
				digits[lo+i] = uint16(d)
				hist[d]++
			}
			return
		}
		for i, x := range src[lo:hi] {
			d := col[x] >> shift & mask
			digits[lo+i] = uint16(d)
			hist[d]++
		}
	})
	// Exclusive scan, digit-major then chunk-major: bucket d of chunk c
	// starts after every smaller digit and after digit d of the chunks
	// before it, which is what keeps the scatter stable.
	var sum uint32
	for d := 0; d < buckets; d++ {
		for c := 0; c < s.chunks; c++ {
			h := &s.hist[c<<sortDigitBits+d]
			*h, sum = sum, sum+*h
		}
	}
	s.each(func(c, lo, hi int) {
		offs := s.hist[c<<sortDigitBits:][:buckets]
		if src == nil {
			for i, d := range digits[lo:hi] {
				dst[offs[d]] = int32(lo + i)
				offs[d]++
			}
			return
		}
		for i, d := range digits[lo:hi] {
			dst[offs[d]] = src[lo+i]
			offs[d]++
		}
	})
}
