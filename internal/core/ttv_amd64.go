package core

import "repro/internal/tensor"

// ttvGroups reduces fibers [lo, hi) of out eight at a time, as ttvLoop
// does, and returns the first fiber it did not reduce: lo + 8·⌊(hi−lo)/8⌋
// if every group passes, else the first fiber of a group whose offsets or
// indices fail its bounds checks (nothing of that group written) or, on
// the body's scalar path, the fiber with the bad index. ttvFits must
// hold for the arguments.
//
//go:noescape
func ttvGroups(out []tensor.Value, fptr []int64, kInd []tensor.Index, vals, v []tensor.Value, lo, hi int) int
