package tensor

// FiberTree compresses lexicographically sorted key columns into the
// level arrays of a fiber tree — the assembly step shared by CSF
// (columns are the index arrays in level order) and the level
// hierarchies (columns are the per-level keys). cols[l][x] is the
// level-l key of sorted entry x. A node at level l is a maximal run of
// entries agreeing on cols[0..l]; from level flat down, and always at
// the last level, every entry is its own node.
//
// ids[l] holds the key of every node at level l, and ptr[l] (one per
// level but the last) the first child at level l+1 of every node at
// level l plus a closing sentinel. The levels where every entry is a
// node are not copied: ids[l] aliases cols[l] there.
//
// The work is linear in the input plus the output: one sweep per level
// finds, for every entry, the topmost level at which it opens a node; a
// histogram of that gives every level's exact node count; and one sweep
// over the entries emits ids and child pointers from per-level running
// node counters, with no per-level rescans and no searching.
func FiberTree(cols [][]Index, flat int) (ids [][]Index, ptr [][]int64) {
	nlev := len(cols)
	if nlev == 0 {
		return nil, nil
	}
	m := len(cols[0])
	flat = min(flat, nlev-1)

	// opens[x]: the topmost level at which entry x opens a new node.
	opens := make([]int32, m)
	for x := range opens {
		opens[x] = int32(flat)
	}
	for l := flat - 1; l >= 0; l-- {
		col := cols[l]
		for x := 1; x < m; x++ {
			if col[x] != col[x-1] {
				opens[x] = int32(l)
			}
		}
	}
	if m > 0 {
		opens[0] = 0
	}

	count := make([]int, nlev) // nodes per level
	for _, l := range opens {
		count[l]++
	}
	for l := 1; l < nlev; l++ {
		if l <= flat {
			count[l] += count[l-1]
		} else {
			count[l] = m
		}
	}

	ids = make([][]Index, nlev)
	ptr = make([][]int64, nlev-1)
	for l := range ids {
		if l < flat {
			ids[l] = make([]Index, count[l])
		} else {
			ids[l] = cols[l]
		}
		if l < nlev-1 {
			ptr[l] = make([]int64, count[l]+1)
			ptr[l][count[l]] = int64(count[l+1])
		}
	}
	for l := flat; l < nlev-1; l++ {
		for x := range ptr[l] {
			ptr[l][x] = int64(x)
		}
	}

	next := make([]int, flat+1) // nodes emitted so far per compressed level
	for x, top := range opens {
		next[flat] = x
		for l := int(top); l < flat; l++ {
			// The node's first child is the one this same entry is
			// about to open on the level below.
			ids[l][next[l]] = cols[l][x]
			ptr[l][next[l]] = int64(next[l+1])
			next[l]++
		}
	}
	return ids, ptr
}

// UnfoldTree is FiberTree's inverse above the leaves: it expands levels
// 0..len(col)-1 of a fiber tree back into columns with one entry per
// node of the deepest of those levels — the coordinates of every fiber,
// which is the output skeleton of a kernel that reduces the levels below
// (Ttv, Ttm). Level l belongs to column col[l] of the ncols returned
// (columns no level names stay nil): the id of node x's level-l ancestor,
// shifted left by shift[l], is ORed into that column's entry x, so
// levels storing bit ranges of one coordinate assemble it in one column.
//
// Like the assembly it is linear, level by level, into exactly-sized
// arrays: composing the child pointers downwards gives every node the
// span of its descendants at the deepest level, which one sweep fills.
// Nodes without children (dense levels) own empty spans.
func UnfoldTree(ids [][]Index, ptr [][]int64, col []int, shift []uint8, ncols int) [][]Index {
	cols := make([][]Index, ncols)
	depth := len(col) - 1
	var span []int64 // first level-depth descendant of every node at level l
	for l := depth; l >= 0; l-- {
		if cols[col[l]] == nil {
			cols[col[l]] = make([]Index, len(ids[depth]))
		}
		dst, s := cols[col[l]], shift[l]
		switch l {
		case depth:
			for x, id := range ids[l] {
				dst[x] |= id << s
			}
			continue
		case depth - 1:
			span = ptr[l]
		default:
			below := span
			span = make([]int64, len(ptr[l]))
			for i, child := range ptr[l] {
				span[i] = below[child]
			}
		}
		for i, id := range ids[l] {
			id <<= s
			for x := span[i]; x < span[i+1]; x++ {
				dst[x] |= id
			}
		}
	}
	return cols
}
