package gen

import (
	"math/bits"

	"repro/internal/tensor"
)

// coordSet is the generators' duplicate filter: an open-addressing set of
// coordinates, each packed into ⌊Σ index bits / 64⌋ + 1 words (mode n
// takes bits.Len(dims[n]−1) bits). Every registered tensor packs into
// one word, but the code has one path for any width. The table holds at
// least twice the non-zeros asked for and never grows: a generator adds
// at most that many distinct coordinates. An all-zero slot is empty; the
// origin, whose packed key is all zero too, is a flag of its own.
type coordSet struct {
	bits   []int    // per mode: index width in bits
	words  int      // words per key
	key    []uint64 // the coordinate being added, packed
	slots  []uint64 // words per slot
	shift  uint     // 64 − log2(slot count): a hash's top bits pick the slot
	mask   int      // slot count − 1
	origin bool     // the all-zero coordinate is in the set
}

func newCoordSet(dims []tensor.Index, n int) *coordSet {
	s := &coordSet{bits: make([]int, len(dims))}
	total := 0
	for m, d := range dims {
		s.bits[m] = bits.Len32(d - 1) // 32 bits for an empty mode, which has no coordinate
		total += s.bits[m]
	}
	s.words = total/64 + 1
	s.key = make([]uint64, s.words)
	logSlots := bits.Len(uint(2 * n)) // 2^logSlots > 2n
	s.slots = make([]uint64, s.words<<logSlots)
	s.shift = uint(64 - logSlots)
	s.mask = 1<<logSlots - 1
	return s
}

// add inserts the coordinate idx (idx[m] < dims[m]) and reports whether
// it was new.
func (s *coordSet) add(idx []tensor.Index) bool {
	k := s.key
	clear(k)
	pos := 0
	for m, i := range idx {
		w, off := pos/64, pos%64
		k[w] |= uint64(i) << off
		if off+s.bits[m] > 64 {
			k[w+1] |= uint64(i) >> (64 - off)
		}
		pos += s.bits[m]
	}
	var h, or uint64
	for _, w := range k {
		h = (h ^ w) * 0x9e3779b97f4a7c15
		or |= w
	}
	if or == 0 {
		had := s.origin
		s.origin = true
		return !had
	}
	for i := int(h >> s.shift); ; i = (i + 1) & s.mask {
		slot := s.slots[i*s.words:][:s.words]
		empty, same := true, true
		for j, w := range slot {
			empty = empty && w == 0
			same = same && w == k[j]
		}
		if same {
			return false
		}
		if empty {
			copy(slot, k)
			return true
		}
	}
}
