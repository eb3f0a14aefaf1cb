package hicoo

import (
	"math/bits"
	"slices"

	"repro/internal/parallel"
	"repro/internal/tensor"
)

// This file is the one ordering-and-blocking pass behind FromCOO,
// FromCOOModes and FromCOOFibers: remap (pack one integer sort key per
// non-zero, in one sweep), sort (parallel.SortColumns over the key and
// the uncompressed columns the input's recorded order leaves open),
// assemble (one sweep over the sorted order writes every output array,
// the block starts and, when asked, the fibers).

// keyBit names one bit of a packed sort key: bit `bit` of the index in
// column `src`.
type keyBit struct {
	src int
	bit uint
}

// blockKeyLayout lists, most significant first, the index bits that
// order non-zeros the HiCOO way over the given modes: the block indices
// (index >> blockBits) bit-interleaved mode-major — the Morton order
// the tests' MortonLess defines — and then each mode's in-block index in
// turn. A bit no index of its mode has set cannot decide a comparison
// and is left out, so the key is as wide as the data, not as the
// declared dimensions.
func blockKeyLayout(t *tensor.COO, modes []int, blockBits uint8) []keyBit {
	used := make([]tensor.Index, len(modes))
	for ci, n := range modes {
		var u tensor.Index // a local: ORing into used[ci] chains every element on a store
		for _, v := range t.Inds[n] {
			u |= v
		}
		used[ci] = u
	}
	var layout []keyBit
	for b := 31; b >= int(blockBits); b-- {
		for ci := range modes {
			if used[ci]>>uint(b)&1 == 1 {
				layout = append(layout, keyBit{ci, uint(b)})
			}
		}
	}
	for ci := range modes {
		for b := int(blockBits) - 1; b >= 0; b-- {
			if used[ci]>>uint(b)&1 == 1 {
				layout = append(layout, keyBit{ci, uint(b)})
			}
		}
	}
	return layout
}

// keyLane ORs one source column into one 64-bit part of the key: tbl[j]
// maps byte j of an index to the key bits that byte sets. Bytes 2 and 3
// are looked up only when the layout takes a bit from them (wide).
type keyLane struct {
	col  int // the source's position in srcs
	src  []tensor.Index
	wide bool
	sets [4][8]uint64 // the key bit each index bit sets, by byte and bit
	tbl  *[4][256]uint64
}

// keyPart is one 64-bit part of the key: its lanes and the two key
// columns it fills (hi is nil for an odd-width key's top part).
type keyPart struct {
	lanes  []keyLane
	lo, hi []uint32
}

// keyChunk is the number of non-zeros packKey assembles at a time: their
// 64-bit key parts (4 KiB) stay in L1 while every lane ORs into them.
const keyChunk = 512

// packKey deposits the layout's bits of every non-zero into as many
// 32-bit key columns as they need, most significant column first (the
// interleaved key of an order-4 tensor can exceed 64 bits, so there is
// no single-word form). The key is built in 64-bit parts; every
// (source, part) pair the layout touches is one lane with a 256-entry
// table per index byte of the bits that byte sets. One sweep over the
// non-zeros, keyChunk at a time, runs each lane's loop over the chunk
// (its source and tables in registers) into the chunk's parts and then
// stores every key word once.
func packKey(srcs [][]tensor.Index, m int, layout []keyBit) [][]uint32 {
	words := (len(layout) + 31) / 32
	cols := make([][]uint32, words)
	backing := make([]uint32, words*m)
	for w := range cols {
		cols[w] = backing[w*m : (w+1)*m : (w+1)*m]
	}
	// Part s holds the key's bits [64s, 64s+64) counted from its LSB:
	// words 2s and 2s+1 from the LSB, columns words-1-2s and words-2-2s.
	parts := make([]keyPart, (words+1)/2)
	for s := range parts {
		parts[s].lo = cols[words-1-2*s]
		if words-2-2*s >= 0 {
			parts[s].hi = cols[words-2-2*s]
		}
	}
	for k, kb := range layout {
		pos := len(layout) - 1 - k // bit position counted from the key's LSB
		part := &parts[pos/64]
		i := 0
		for i < len(part.lanes) && part.lanes[i].col != kb.src {
			i++
		}
		if i == len(part.lanes) {
			part.lanes = append(part.lanes, keyLane{col: kb.src, src: srcs[kb.src][:m]})
		}
		l := &part.lanes[i]
		l.wide = l.wide || kb.bit >= 16
		l.sets[kb.bit/8][kb.bit%8] = 1 << uint(pos%64)
	}
	// A byte value's entry is the entry of the value without its lowest
	// set bit, plus that bit's key bit.
	for s := range parts {
		for i := range parts[s].lanes {
			l := &parts[s].lanes[i]
			l.tbl = new([4][256]uint64)
			for j := range l.tbl {
				tbl, set := &l.tbl[j], &l.sets[j]
				if *set == [8]uint64{} {
					continue // no key bit from this byte: its table stays zero
				}
				for v := 1; v < len(tbl); v++ {
					tbl[v] = tbl[v&(v-1)] | set[bits.TrailingZeros8(uint8(v))]
				}
			}
		}
	}
	var buf [keyChunk]uint64
	for lo := 0; lo < m; lo += keyChunk {
		hi := min(lo+keyChunk, m)
		for s := range parts {
			part, acc := &parts[s], buf[:hi-lo]
			clear(acc)
			for i := range part.lanes {
				l := &part.lanes[i]
				src, t0, t1 := l.src[lo:hi], &l.tbl[0], &l.tbl[1]
				src = src[:len(acc)]
				if l.wide {
					t2, t3 := &l.tbl[2], &l.tbl[3]
					for j, v := range src {
						acc[j] |= t0[v&255] | t1[v>>8&255] | t2[v>>16&255] | t3[v>>24]
					}
					continue
				}
				for j, v := range src {
					acc[j] |= t0[v&255] | t1[v>>8&255]
				}
			}
			words := part.lo[lo:hi]
			for j, key := range acc {
				words[j] = uint32(key)
			}
			if part.hi != nil {
				words = part.hi[lo:hi]
				for j, key := range acc {
					words[j] = uint32(key >> 32)
				}
			}
		}
	}
	return cols
}

// blocking is the ordered, blocked form of a tensor: its compressed
// modes' block and element indices, its uncompressed modes' indices and
// its values in that order, and, when asked for, its fibers.
type blocking struct {
	bptr   []int64          // first sorted position of every block, plus NNZ
	binds  [][]tensor.Index // per compressed mode, one block index per block
	einds  [][]uint8        // per compressed mode, one element index per non-zero
	uinds  [][]tensor.Index // per uncompressed mode, one index per non-zero
	vals   []tensor.Value
	fibers *Fibers
}

// blockModes orders t's non-zeros by the Morton order of their block
// indices over the compressed modes, then by element indices, then
// lexicographically by the uncompressed modes, and cuts the order into
// blocks — and, with fibers, into fibers: runs of non-zeros equal on
// every compressed mode. The packed key ties exactly when the compressed
// modes do, so of the uncompressed columns only those the input's
// recorded order leaves open (tensor.COO.SortPrefix) are sorted on.
func blockModes(t *tensor.COO, comp, uncomp []int, blockBits uint8, fibers bool) blocking {
	m := t.NNZ()
	srcs := make([][]tensor.Index, len(comp))
	for ci, n := range comp {
		srcs[ci] = t.Inds[n]
	}
	key := packKey(srcs, m, blockKeyLayout(t, comp, blockBits))
	target := append(append(make([]int, 0, len(comp)+len(uncomp)), comp...), uncomp...)
	open := max(len(t.SortPrefix(target))-len(comp), 0)
	cols := key
	for _, n := range uncomp[:open] {
		cols = append(cols, t.Inds[n])
	}
	perm := parallel.SortColumns(m, cols)
	// The key is dead once sorted: its first column, when it has one,
	// holds the assembly's differences.
	var diffs []tensor.Index
	if len(key) > 0 {
		diffs = key[0]
	} else {
		diffs = make([]tensor.Index, m)
	}
	return assemble(t, srcs, uncomp, perm, diffs, blockBits, fibers)
}

// assemble writes t's arrays in the sorted order perm and cuts it into
// blocks and, with fibers, into fibers. Each column is one branch-free
// gather over perm (a single loop over every column ran slower: a
// block start's unpredictable branch stalls all its loads); the
// compressed columns' gathers also leave in diffs[w] the bits in which
// non-zero w's compressed indices differ from its predecessor's. One
// pass over diffs then counts the blocks (a block index changed) and the
// fibers (any compressed index changed), and one more writes their
// starts into arrays of exactly those sizes.
func assemble(t *tensor.COO, srcs [][]tensor.Index, uncomp []int, perm []int32, diffs []tensor.Index, blockBits uint8, withFibers bool) blocking {
	m, nc := len(perm), len(srcs)
	diffs = diffs[:m]
	b := blocking{
		einds: make([][]uint8, nc),
		uinds: make([][]tensor.Index, len(uncomp)),
		vals:  make([]tensor.Value, m),
	}
	mask := tensor.Index(1)<<blockBits - 1
	ebuf := make([]uint8, nc*m)
	clear(diffs)
	for ci, src := range srcs {
		e := ebuf[ci*m : (ci+1)*m : (ci+1)*m]
		var prev tensor.Index
		for w, x := range perm {
			v := src[x]
			diffs[w] |= v ^ prev
			prev = v
			e[w] = uint8(v & mask)
		}
		b.einds[ci] = e
	}
	if len(uncomp) > 0 {
		ubuf := make([]tensor.Index, len(uncomp)*m)
		for ui, n := range uncomp {
			src, u := t.Inds[n], ubuf[ui*m:(ui+1)*m:(ui+1)*m]
			for w, x := range perm {
				u[w] = src[x]
			}
			b.uinds[ui] = u
		}
	}
	for w, x := range perm {
		b.vals[w] = t.Vals[x]
	}

	if m > 0 {
		diffs[0] = ^tensor.Index(0) // the first non-zero opens a block and a fiber
	}
	nb, nf := 0, 0
	for _, d := range diffs {
		if d>>blockBits != 0 {
			nb++
		}
		if d != 0 {
			nf++
		}
	}
	b.bptr = make([]int64, nb+1)
	var fb *Fibers
	if withFibers {
		fb = &Fibers{Ptr: make([]int64, nf+1), BPtr: make([]int64, nb+1), BInds: make([][]tensor.Index, nc), EInds: make([][]uint8, nc)}
	}
	blk, f := 0, 0
	for w, d := range diffs {
		if d>>blockBits != 0 {
			b.bptr[blk] = int64(w)
			if fb != nil {
				fb.BPtr[blk] = int64(f)
			}
			blk++
		}
		if fb != nil && d != 0 {
			fb.Ptr[f] = int64(w)
			f++
		}
	}
	b.bptr[nb] = int64(m)
	b.binds = make([][]tensor.Index, nc)
	for ci, src := range srcs {
		bi := make([]tensor.Index, nb)
		for blk, w := range b.bptr[:nb] {
			bi[blk] = src[perm[w]] >> blockBits
		}
		b.binds[ci] = bi
	}
	if fb != nil {
		fb.Ptr[nf], fb.BPtr[nb] = int64(m), int64(nf)
		fe := make([]uint8, nc*nf)
		for ci, e := range b.einds {
			fb.BInds[ci] = slices.Clone(b.binds[ci])
			heads := fe[ci*nf : (ci+1)*nf : (ci+1)*nf]
			for i, w := range fb.Ptr[:nf] {
				heads[i] = e[w]
			}
			fb.EInds[ci] = heads
		}
		b.fibers = fb
	}
	return b
}
