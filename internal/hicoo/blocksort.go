package hicoo

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// This file is the one ordering-and-blocking pass behind FromCOO and
// FromCOOModes: remap (pack one integer sort key per non-zero), sort
// (parallel.SortColumns), assemble (block boundaries, element indices).

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
		for _, v := range t.Inds[n] {
			used[ci] |= v
		}
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

// packKey deposits the layout's bits of every non-zero into as many
// 32-bit key columns as they need, most significant column first (the
// interleaved key of an order-4 tensor already exceeds 64 bits, so there
// is no single-word form to fall back from). Each (source byte, key
// column) pair gets a 256-entry table of the key bits that byte
// contributes, and one sequential sweep ORs it in.
func packKey(srcs [][]tensor.Index, m int, layout []keyBit) [][]uint32 {
	words := (len(layout) + 31) / 32
	cols := make([][]uint32, words)
	for w := range cols {
		cols[w] = make([]uint32, m)
	}
	type lane struct{ src, byt, word int }
	tables := make(map[lane]*[256]uint32)
	var lanes []lane // in first-use order, so the sweep order is deterministic
	for k, kb := range layout {
		pos := len(layout) - 1 - k // bit position counted from the key's LSB
		l := lane{kb.src, int(kb.bit / 8), words - 1 - pos/32}
		tbl := tables[l]
		if tbl == nil {
			tbl = new([256]uint32)
			tables[l] = tbl
			lanes = append(lanes, l)
		}
		for v := range tbl {
			if v>>(kb.bit%8)&1 == 1 {
				tbl[v] |= 1 << uint(pos%32)
			}
		}
	}
	for _, l := range lanes {
		tbl, dst, shift := tables[l], cols[l.word], 8*uint(l.byt)
		for x, v := range srcs[l.src][:m] {
			dst[x] |= tbl[v>>shift&255]
		}
	}
	return cols
}

// blocking is the ordered, blocked form of a tensor's compressed modes.
type blocking struct {
	perm  []int32          // sorted position → input non-zero
	bptr  []int64          // first sorted position of every block, plus NNZ
	binds [][]tensor.Index // per compressed mode, one block index per block
	einds [][]uint8        // per compressed mode, one element index per non-zero
}

// blockModes orders t's non-zeros by the Morton order of their block
// indices over the compressed modes, then by element indices, then
// lexicographically by the uncompressed modes, and cuts the order into
// blocks. Block boundaries are flagged in the same sweeps that extract
// the element indices, so every output array is allocated once at its
// final size.
func blockModes(t *tensor.COO, comp, uncomp []int, blockBits uint8) blocking {
	m := t.NNZ()
	srcs := make([][]tensor.Index, len(comp))
	for ci, n := range comp {
		srcs[ci] = t.Inds[n]
	}
	cols := packKey(srcs, m, blockKeyLayout(t, comp, blockBits))
	for _, n := range uncomp {
		cols = append(cols, t.Inds[n])
	}
	b := blocking{
		perm:  parallel.SortColumns(m, cols),
		binds: make([][]tensor.Index, len(comp)),
		einds: make([][]uint8, len(comp)),
	}

	mask := tensor.Index(1)<<blockBits - 1
	first := make([]bool, m) // first[w]: sorted position w opens a block
	nb := 0
	for ci, src := range srcs {
		e := make([]uint8, m)
		var prev tensor.Index
		for w, x := range b.perm {
			v := src[x]
			e[w] = uint8(v & mask)
			if blk := v >> blockBits; blk != prev || w == 0 {
				if !first[w] {
					first[w] = true
					nb++
				}
				prev = blk
			}
		}
		b.einds[ci] = e
	}
	b.bptr = make([]int64, 0, nb+1)
	for w, f := range first {
		if f {
			b.bptr = append(b.bptr, int64(w))
		}
	}
	b.bptr = append(b.bptr, int64(m))
	for ci, src := range srcs {
		bi := make([]tensor.Index, nb)
		for blk := range bi {
			bi[blk] = src[b.perm[b.bptr[blk]]] >> blockBits
		}
		b.binds[ci] = bi
	}
	return b
}

// gathered returns src reordered by perm.
func gathered[T any](src []T, perm []int32) []T {
	out := make([]T, len(perm))
	for w, x := range perm {
		out[w] = src[x]
	}
	return out
}
