package ooc

import (
	"os"

	"repro/internal/tensor"
)

// spoolTileNNZ slices a spooled tensor into enough tiles that a stream
// actually cycles its window (at least ~16 on benchmark-sized
// stand-ins), without exceeding the format default.
func spoolTileNNZ(nnz int) int {
	t := nnz / 16
	if t < 1 {
		t = 1
	}
	if t > tensor.DefaultTileNNZ {
		t = tensor.DefaultTileNNZ
	}
	return t
}

// Spool writes x to a temporary PSTB v3 file, sliced as spoolTileNNZ
// says, and returns a reader over it plus the file's size. The stream
// then reads real file bytes, not a memory image. The file is unlinked
// as soon as the reader holds it open: its blocks are reclaimed when
// the reader is closed (or the process exits), and no directory entry
// can leak.
func Spool(x *tensor.COO) (*tensor.TileReader, int64, error) {
	f, err := os.CreateTemp("", "pasta-ooc-*.bten")
	if err != nil {
		return nil, 0, err
	}
	path := f.Name()
	f.Close() // WriteFileTiled reopens the path and checks its own Close
	defer os.Remove(path)
	if err := tensor.WriteFileTiled(path, x, spoolTileNNZ(x.NNZ())); err != nil {
		return nil, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	tr, err := tensor.OpenTiled(path)
	if err != nil {
		return nil, 0, err
	}
	return tr, fi.Size(), nil
}

// SpoolMinBudget is the smallest MemBudget the pipeline streams a
// spooled order-`order` tensor of nnz non-zeros under: two
// double-buffered leases of twice the largest tile payload
// (4·(order+1) bytes per non-zero) each. It depends only on the shape,
// so a caller can charge it before the spool exists.
func SpoolMinBudget(order, nnz int) int64 {
	return 4 * 4 * int64(order+1) * int64(spoolTileNNZ(nnz))
}
