// Package levels is the format-abstraction layer of the suite: a sparse
// tensor format is described as an ordered hierarchy of per-mode levels
// (taco's coordinate-hierarchy abstraction, Chou et al.), and one
// generic kernel body instantiates over any hierarchy instead of being
// rewritten per format. A level stores the coordinates of one tensor
// mode — or, for blocked formats, one bit-range of a mode — and
// position pointers into the level below, exactly the shape CSF's fiber
// arrays already have. COO, CSF, lexicographic HiCOO, and blocked-CSF
// all become declarations: a Signature listing level kinds, which
// Build materializes from a COO tensor with no format-specific code.
package levels

import (
	"fmt"
	"strings"

	"repro/internal/tensor"
)

// Kind classifies how one level stores its coordinates.
type Kind int

const (
	// Dense levels materialize every coordinate in [0, extent); absent
	// coordinates own empty child ranges. Storage is parents × extent, so
	// dense levels suit small mode sizes only.
	Dense Kind = iota
	// Compressed levels store one node per distinct coordinate run under
	// a parent (CSF's fiber arrays).
	Compressed
	// Singleton levels store exactly one child per parent position —
	// COO's trailing index arrays, where no compression happens.
	Singleton
	// Blocked levels store one bit-range of a mode's coordinate: a
	// coarse (Partial) level holds coord>>Shift and a later Blocked
	// level with Shift 0 completes the mode with the low bits. The full
	// coordinate is reassembled by OR-ing the shifted pieces along a
	// root-to-leaf path.
	Blocked
)

func (k Kind) String() string {
	switch k {
	case Dense:
		return "dense"
	case Compressed:
		return "compressed"
	case Singleton:
		return "singleton"
	case Blocked:
		return "blocked"
	}
	return "unknown"
}

// LevelDesc declares one level of a format, independent of any concrete
// tensor: which mode-order slot it stores, how, and — for Blocked
// levels — which bit-range of the coordinate.
type LevelDesc struct {
	Kind Kind
	// Slot indexes the kernel-chosen mode order: the format declares
	// levels over slots, and Prepare decides which tensor mode each slot
	// maps to (e.g. Mttkrp puts the output mode in slot 0).
	Slot int
	// Shift is the left-shift this level's coordinates take when the
	// mode's full coordinate is reassembled (Blocked coarse levels).
	Shift uint8
	// Partial marks a level that stores only the high bits of its slot;
	// a later level with Partial=false completes the coordinate.
	Partial bool
}

// Signature is a format declared as an ordered list of levels. The
// number of levels may exceed the tensor order (blocked formats split a
// mode across two levels).
type Signature struct {
	Name   string
	Levels []LevelDesc
}

// String renders the level signature compactly, e.g.
// "bCSF: blocked(0,>>7)·blocked(0)·compressed(1)·compressed(2)".
func (s Signature) String() string {
	parts := make([]string, len(s.Levels))
	for i, d := range s.Levels {
		if d.Partial {
			parts[i] = fmt.Sprintf("%s(%d,>>%d)", d.Kind, d.Slot, d.Shift)
		} else {
			parts[i] = fmt.Sprintf("%s(%d)", d.Kind, d.Slot)
		}
	}
	return s.Name + ": " + strings.Join(parts, "·")
}

// Validate checks a signature against a tensor order: every slot in
// [0, order) must be assembled exactly once (one non-partial level,
// preceded by any partial levels in decreasing shift order).
func (s Signature) Validate(order int) error {
	done := make([]bool, order)
	lastShift := make([]int, order)
	for i := range lastShift {
		lastShift[i] = -1
	}
	for li, d := range s.Levels {
		if d.Slot < 0 || d.Slot >= order {
			return fmt.Errorf("levels: level %d slot %d out of range for order %d", li, d.Slot, order)
		}
		if done[d.Slot] {
			return fmt.Errorf("levels: level %d re-assembles completed slot %d", li, d.Slot)
		}
		if d.Partial {
			if d.Kind != Blocked {
				return fmt.Errorf("levels: level %d is partial but not blocked", li)
			}
			if d.Shift == 0 {
				return fmt.Errorf("levels: level %d is partial with shift 0", li)
			}
			if lastShift[d.Slot] >= 0 && int(d.Shift) >= lastShift[d.Slot] {
				return fmt.Errorf("levels: slot %d shifts must strictly decrease", d.Slot)
			}
			lastShift[d.Slot] = int(d.Shift)
		} else {
			if d.Shift != 0 {
				return fmt.Errorf("levels: level %d completes slot %d but shifts by %d", li, d.Slot, d.Shift)
			}
			done[d.Slot] = true
		}
	}
	for slot, ok := range done {
		if !ok {
			return fmt.Errorf("levels: slot %d never completed", slot)
		}
	}
	if last := s.Levels[len(s.Levels)-1]; last.Partial {
		return fmt.Errorf("levels: leaf level is partial")
	}
	return nil
}

// Hierarchy is a concrete tensor materialized under a signature: CSF-
// shaped coordinate and pointer arrays, one pair per level, with the
// values parallel to the leaf level.
type Hierarchy struct {
	Sig Signature
	// Dims holds the full tensor dimensions in natural mode numbering.
	Dims []tensor.Index
	// ModeOrder maps signature slot → tensor mode.
	ModeOrder []int
	// Crd[l] holds the (possibly partial) coordinate of every node at
	// level l; Crd[len-1] parallels Vals.
	Crd [][]tensor.Index
	// Ptr[l] holds, for each node at level l, the range of its children
	// at level l+1 (len = NumNodes(l)+1); there are len(Crd)-1 arrays.
	Ptr [][]int64
	// Vals holds the non-zero values at the leaves.
	Vals []tensor.Value
}

// Order returns the tensor order (number of modes, not levels).
func (h *Hierarchy) Order() int { return len(h.Dims) }

// Depth returns the number of levels.
func (h *Hierarchy) Depth() int { return len(h.Crd) }

// NumNodes returns the node count at one level.
func (h *Hierarchy) NumNodes(level int) int { return len(h.Crd[level]) }

// Mode returns the tensor mode level l contributes coordinates to.
func (h *Hierarchy) Mode(level int) int { return h.ModeOrder[h.Sig.Levels[level].Slot] }

// CompletionLevel returns the level at which the given tensor mode's
// coordinate is fully assembled, or -1 if the mode is not covered.
func (h *Hierarchy) CompletionLevel(mode int) int {
	for l, d := range h.Sig.Levels {
		if h.ModeOrder[d.Slot] == mode && !d.Partial {
			return l
		}
	}
	return -1
}

// Validate checks the structural invariants every kernel body assumes:
// pointer arrays span their child levels monotonically, the leaf level
// parallels the values, and reassembled coordinates stay in range.
func (h *Hierarchy) Validate() error {
	depth := h.Depth()
	if depth != len(h.Sig.Levels) {
		return fmt.Errorf("levels: %d levels materialized for %d declared", depth, len(h.Sig.Levels))
	}
	if err := h.Sig.Validate(h.Order()); err != nil {
		return err
	}
	if len(h.Ptr) != depth-1 {
		return fmt.Errorf("levels: %d pointer arrays for %d levels", len(h.Ptr), depth)
	}
	for l := 0; l < depth-1; l++ {
		if len(h.Ptr[l]) != len(h.Crd[l])+1 {
			return fmt.Errorf("levels: level %d has %d pointers for %d nodes", l, len(h.Ptr[l]), len(h.Crd[l]))
		}
		if len(h.Ptr[l]) > 0 && (h.Ptr[l][0] != 0 || h.Ptr[l][len(h.Ptr[l])-1] != int64(len(h.Crd[l+1]))) {
			return fmt.Errorf("levels: level %d pointers do not span children", l)
		}
		for i := 0; i+1 < len(h.Ptr[l]); i++ {
			if h.Ptr[l][i+1] < h.Ptr[l][i] {
				return fmt.Errorf("levels: level %d pointers not monotone at node %d", l, i)
			}
			if h.Sig.Levels[l].Kind != Dense && h.Ptr[l][i+1] == h.Ptr[l][i] {
				return fmt.Errorf("levels: level %d node %d has no children", l, i)
			}
		}
	}
	if len(h.Crd[depth-1]) != len(h.Vals) {
		return fmt.Errorf("levels: leaf count %d != value count %d", len(h.Crd[depth-1]), len(h.Vals))
	}
	for n, col := range h.unfold(depth - 1) {
		for _, i := range col {
			if i >= h.Dims[n] {
				return fmt.Errorf("levels: coordinate %d out of range for mode %d (dim %d)", i, n, h.Dims[n])
			}
		}
	}
	return nil
}

// unfold reassembles the coordinates levels 0..depth store: one column
// per tensor mode with an entry per level-depth node (nil for a mode
// those levels hold no bits of).
func (h *Hierarchy) unfold(depth int) [][]tensor.Index {
	modes := make([]int, depth+1)
	shift := make([]uint8, depth+1)
	for l := range modes {
		modes[l], shift[l] = h.Mode(l), h.Sig.Levels[l].Shift
	}
	return tensor.UnfoldTree(h.Crd, h.Ptr, modes, shift, h.Order())
}
