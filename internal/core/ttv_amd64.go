package core

import "repro/internal/tensor"

// ttvGroups reduces fibers [lo, hi) eight at a time, as ttvLoop does,
// into out, or into out[perm[f]] when perm is not nil, and returns the
// first fiber it did not reduce: lo + 8·⌊(hi−lo)/8⌋ if every group
// passes, else the first fiber of a group whose offsets, indices or perm
// entries fail its bounds checks (nothing of that group written).
// ttvFits must hold for the arguments.
//
//go:noescape
func ttvGroups(out []tensor.Value, fptr []int64, kInd []tensor.Index, vals, v []tensor.Value, perm []int32, lo, hi int) int
