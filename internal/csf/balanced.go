package csf

import (
	"repro/internal/parallel"
	"repro/internal/tensor"
)

// Balanced CSF (Nisa et al. — cited as [25] in the paper's §7 future-work
// list) fixes the load imbalance of subtree-parallel Mttkrp: power-law
// tensors concentrate most non-zeros under a few hub roots, so a thread
// per root idles the rest of the machine. Balancing splits overweight
// roots into bounded-size tasks; tasks of a shared root combine their
// partial rows with atomic adds. It is a schedule over the plain CSF
// tree, not a format: the grid's bCSF (roofline.BCSF, levels.BCSFSig) is
// *blocked* CSF, whose root level is split into coarse and fine bits.

// task is one balanced work unit: children [lo, hi) at level 1 under
// root. A root light enough to fit the budget yields exactly one task.
type task struct {
	root   int
	lo, hi int64
}

// leafRange returns the leaf (non-zero) span under a node range at a
// level by composing the fiber pointers down to the leaves.
func (c *CSF) leafRange(level int, lo, hi int64) (int64, int64) {
	for l := level; l < c.Order()-1; l++ {
		lo = c.FPtr[l][lo]
		hi = c.FPtr[l][hi]
	}
	return lo, hi
}

// buildTasks splits each root's level-1 children greedily so no task
// exceeds maxLeaves non-zeros (single overweight children still form
// their own task — the granularity floor is one child subtree).
func (c *CSF) buildTasks(maxLeaves int64) []task {
	if maxLeaves < 1 {
		maxLeaves = 1
	}
	var tasks []task
	if c.Order() < 2 {
		return tasks
	}
	for root := 0; root < c.NumNodes(0); root++ {
		lo := c.FPtr[0][root]
		hi := c.FPtr[0][root+1]
		start := lo
		var acc int64
		for ch := lo; ch < hi; ch++ {
			cl, chh := c.leafRange(1, ch, ch+1)
			w := chh - cl
			if acc > 0 && acc+w > maxLeaves {
				tasks = append(tasks, task{root, start, ch})
				start = ch
				acc = 0
			}
			acc += w
		}
		if start < hi {
			tasks = append(tasks, task{root, start, hi})
		}
	}
	return tasks
}

// MttkrpRootBalanced computes the root-mode Mttkrp with balanced tasks:
// roots whose subtrees exceed maxLeaves non-zeros are split, each task
// sums its share in private scratch, and the tasks of a split root merge
// into the shared output row atomically (a task that covers its root
// alone commits plainly). maxLeaves <= 0 selects a heuristic (total
// non-zeros / 8·workers).
func (c *CSF) MttkrpRootBalanced(mats []*tensor.Matrix, opt parallel.Options, maxLeaves int64) (*tensor.Matrix, error) {
	p, err := PrepareMttkrp(c.Tree(), FactorCols(mats, c.ModeOrder[0]))
	if err != nil {
		return nil, err
	}
	if maxLeaves <= 0 {
		maxLeaves = int64(c.NNZ())/(8*int64(parallel.ResolveThreads(0, opt))) + 1
	}
	p.tasks = c.buildTasks(maxLeaves)
	p.units = len(p.tasks)
	return p.ExecuteOMP(mats, opt)
}

// TaskStats reports the balance the task decomposition achieved — the
// quantity balancing improves over plain subtree parallelism.
type TaskStats struct {
	Roots     int
	Tasks     int
	MaxLeaves int64 // heaviest task
	MinLeaves int64 // lightest task
}

// ComputeTaskStats builds the task list for a budget and measures it.
func (c *CSF) ComputeTaskStats(maxLeaves int64) TaskStats {
	tasks := c.buildTasks(maxLeaves)
	st := TaskStats{Roots: c.NumNodes(0), Tasks: len(tasks)}
	for i, t := range tasks {
		lo, hi := c.leafRange(1, t.lo, t.hi)
		w := hi - lo
		if i == 0 || w > st.MaxLeaves {
			st.MaxLeaves = w
		}
		if i == 0 || w < st.MinLeaves {
			st.MinLeaves = w
		}
	}
	return st
}
