package core

import "repro/internal/tensor"

// ttmRows writes columns [0, r&^7) of the output rows of fibers [lo, hi)
// of out, as ttmCols does, and returns hi — or the first fiber whose
// output row, value range or U row does not fit, of which it writes
// nothing. ttmFits must hold for the arguments. With stream it writes the
// rows with streaming stores where out and r allow them (ttmStreamValues).
//
//go:noescape
func ttmRows(out []tensor.Value, fptr []int64, kInd []tensor.Index, vals, ud []tensor.Value, r, lo, hi int, stream bool) int
