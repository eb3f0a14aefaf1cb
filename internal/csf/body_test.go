package csf

import (
	"fmt"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// TestTreeMttkrpBodyBitIdentical holds the tree plan's two assembly
// bodies, fibersAVX2 (behind sumFibers) and chainsAVX2 (behind
// chainNodes), to their contract (DESIGN.md, "Assembly bodies") against
// the recursive scalar loop the plan replaced: for every mode at the
// root of every tree of tensortest.MttkrpCases (the mixed chains among
// them, whose chain-node body hands nodes back), and for two trees whose
// first root the bodies cut into calls, one over long fibers, one over
// 30 000 chain nodes (90 000 leaves).
func TestTreeMttkrpBodyBitIdentical(t *testing.T) {
	for _, c := range tensortest.MttkrpCases(t) {
		t.Run(c.Name, func(t *testing.T) {
			x := c.X
			var b tensortest.Body
			for mode := 0; mode < x.Order(); mode++ {
				tree, err := FromCOO(x, rootFirst(x.Order(), mode))
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range []int{1, 3, 7, 8, 9, 13, 15, 16, 17, 24, 32, 33} {
					b.Cases = append(b.Cases, treeCases(t, fmt.Sprintf("mode %d R %d", mode, r), x, tree, r, nil)...)
				}
			}
			tensortest.CheckBody(t, b)
		})
	}
	t.Run("calls", func(t *testing.T) {
		var b tensortest.Body
		for name, x := range map[string]*tensor.COO{"wide-root": wideRoot(), "long-chains": chainTensor(1, 30_000)} {
			tree, err := FromCOO(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			// The units of the first root: fibers (wide-root) or nodes of
			// one-leaf fibers (long-chains), their leaves or fibers bounded
			// by the level-1 pointer.
			units := tree.FPtr[1][tree.FPtr[0][0] : tree.FPtr[0][1]+1]
			for _, r := range []int{16, 17} {
				b.Cases = append(b.Cases, treeCases(t, fmt.Sprintf("%s R %d", name, r), x, tree, r, units)[0])
			}
		}
		tensortest.CheckBody(t, b)
	})
}

// treeCases run the tree plan on tree, built from x, through ExecuteSeq,
// MttkrpRoot on one and two threads (roots own their rows) and
// MttkrpRootBalanced at budgets 1, 7 and 1<<40 on one thread (the tasks
// of a root commit in order). The ranks cover no sixteen-column pass, one, two, an
// eight-column pass and every tail length the Go loops finish.
func treeCases(t *testing.T, label string, x *tensor.COO, tree *CSF, r int, units []int64) []tensortest.BodyCase {
	mats := tensortest.SignedFactors(x, r, int64(r))
	size := int(tree.Dims[tree.ModeOrder[0]]) * r
	p, err := PrepareMttkrp(tree.Tree(), r)
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	root := func(out []tensor.Value) { copy(out, oracleRoot(tree, mats, r).Data) }
	run := func(exec func() (*tensor.Matrix, error)) func([]tensor.Value) {
		return func(out []tensor.Value) {
			got, err := exec()
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			copy(out, got.Data)
		}
	}
	cases := []tensortest.BodyCase{{Name: label + " ExecuteSeq", Size: size, Oracle: root, Units: units,
		Run: run(func() (*tensor.Matrix, error) { return p.ExecuteSeq(mats) })}}
	for _, threads := range []int{1, 2} {
		cases = append(cases, tensortest.BodyCase{Name: fmt.Sprintf("%s MttkrpRoot on %d threads", label, threads), Size: size, Oracle: root,
			Run: run(func() (*tensor.Matrix, error) {
				return tree.MttkrpRoot(mats, parallel.Options{Threads: threads, Schedule: parallel.Dynamic, Chunk: 3})
			})})
	}
	for _, budget := range []int64{1, 7, 1 << 40} {
		cases = append(cases, tensortest.BodyCase{Name: fmt.Sprintf("%s balanced, budget %d", label, budget), Size: size,
			Oracle: func(out []tensor.Value) { copy(out, oracleTasks(tree, tree.buildTasks(budget), mats, r).Data) },
			Run: run(func() (*tensor.Matrix, error) {
				return tree.MttkrpRootBalanced(mats, parallel.Options{Threads: 1}, budget)
			})})
	}
	return cases
}

// TestTreeMttkrpOutOfRangePanicsAtSameNode corrupts one index of a tree —
// a leaf's row, a fiber's row, a node's row, a fiber's leaf pointer or a
// node's fiber pointer — under long fibers (order 3) and under chains
// (order 4): both sides must panic with the same runtime error after the
// same writes, the roots before the bad one committed.
func TestTreeMttkrpOutOfRangePanicsAtSameNode(t *testing.T) {
	var b tensortest.Body
	fibers := randTensor(5, []tensor.Index{30, 20, 40}, 2000)
	chains := chainTensor(16, 40)
	// chain returns a node of level 1 of a chain tree that holds two or
	// more fibers of one leaf each, half-way through the level.
	chain := func(c *CSF) int {
		for n := len(c.FIds[1]) / 2; ; n++ {
			f0, f1 := c.FPtr[1][n], c.FPtr[1][n+1]
			if f1-f0 >= 2 && c.FPtr[2][f1]-c.FPtr[2][f0] == f1-f0 {
				return n
			}
		}
	}
	for _, bad := range []struct {
		name    string
		x       *tensor.COO
		corrupt func(c *CSF)
	}{
		{"long fibers, leaf row", fibers, func(c *CSF) { c.FIds[2][len(c.Vals)/2] = c.Dims[2] }},
		{"long fibers, fiber row", fibers, func(c *CSF) { c.FIds[1][len(c.FIds[1])/2] = c.Dims[1] }},
		{"long fibers, leaf pointer", fibers, func(c *CSF) { c.FPtr[1][len(c.FIds[1])/2] = int64(len(c.Vals)) + 3 }},
		{"chains, leaf row", chains, func(c *CSF) { c.FIds[3][c.FPtr[2][c.FPtr[1][chain(c)]]] = c.Dims[3] }},
		{"chains, fiber row", chains, func(c *CSF) { c.FIds[2][c.FPtr[1][chain(c)]+1] = c.Dims[2] }},
		{"chains, node row", chains, func(c *CSF) { c.FIds[1][chain(c)] = c.Dims[1] }},
		{"chains, leaf pointer", chains, func(c *CSF) { c.FPtr[2][c.FPtr[1][chain(c)]] = -1 }},
		{"chains, fiber pointer", chains, func(c *CSF) { c.FPtr[1][chain(c)+1] = int64(len(c.FIds[2])) + 5 }},
	} {
		for _, r := range []int{8, 16, 17, 33} {
			mats := tensortest.SignedFactors(bad.x, r, 7)
			b.Corruptions = append(b.Corruptions, tensortest.BodyCase{
				Name: fmt.Sprintf("%s R %d", bad.name, r), Size: int(bad.x.Dims[0]) * r,
				// Each side corrupts a tree of its own; the plan's output
				// is what the roots before the bad one committed.
				Run: func(out []tensor.Value) {
					c, err := FromCOO(bad.x, nil)
					if err != nil {
						t.Fatal(err)
					}
					bad.corrupt(c)
					p, err := PrepareMttkrp(c.Tree(), r)
					if err != nil {
						t.Fatal(err)
					}
					defer func() { copy(out, p.Out.Data) }()
					p.ExecuteSeq(mats)
				},
			})
		}
	}

	tensortest.CheckBody(t, b)
}

// TestTreeMttkrpExecuteAllocatesNothing pins ExecuteSeq of the tree plan
// at zero allocations per call: the plan owns its output and draws
// pooled level scratch.
func TestTreeMttkrpExecuteAllocatesNothing(t *testing.T) {
	allocs := map[string]func() error{}
	for name, x := range map[string]*tensor.COO{"long fibers": randTensor(5, []tensor.Index{30, 20, 40}, 2000), "chains": chainTensor(16, 40)} {
		for _, r := range []int{16, 20} {
			tree, err := FromCOO(x, nil)
			if err != nil {
				t.Fatal(err)
			}
			p, err := PrepareMttkrp(tree.Tree(), r)
			if err != nil {
				t.Fatal(err)
			}
			mats := tensortest.SignedFactors(x, r, 3)
			allocs[fmt.Sprintf("%s R %d ExecuteSeq", name, r)] = func() error { _, err := p.ExecuteSeq(mats); return err }
		}
	}
	tensortest.CheckBody(t, tensortest.Body{Allocs: allocs})
}

// wideRoot is an order-3 tensor whose first root holds 600 fibers of 120
// leaves (72 000 leaves, cut between fibers) and whose second root holds
// one fiber of 70 000 leaves (one call, longer than the budget).
func wideRoot() *tensor.COO {
	const long = 70_000
	x := tensor.NewCOO([]tensor.Index{2, 600, long}, 0)
	for j := 0; j < 600; j++ {
		for k := 0; k < 120; k++ {
			x.Append([]tensor.Index{0, tensor.Index(j), tensor.Index((k*587 + j) % long)}, tensor.Value(k%9)-4.5)
		}
	}
	for k := 0; k < long; k++ {
		x.Append([]tensor.Index{1, 0, tensor.Index(k)}, tensor.Value(k%5)-2)
	}
	return x
}

// chainTensor is an order-4 tensor of roots roots, each holding nodes
// nodes of three one-leaf fibers — every 97th node with a two-leaf fiber
// instead, which the chain-node body hands back.
func chainTensor(roots, nodes int) *tensor.COO {
	const leaves = 4096
	x := tensor.NewCOO([]tensor.Index{tensor.Index(roots), tensor.Index(nodes), 3, leaves}, 0)
	for i := 0; i < roots; i++ {
		for j := 0; j < nodes; j++ {
			n := i*nodes + j
			for f := 0; f < 3; f++ {
				idx := []tensor.Index{tensor.Index(i), tensor.Index(j), tensor.Index(f), tensor.Index((n*7 + f*1031) % leaves)}
				x.Append(idx, tensor.Value((n+f)%7)-3)
				if n%97 == 0 && f == 1 {
					idx[3] = (idx[3] + 1) % leaves
					x.Append(idx, 0.25)
				}
			}
		}
	}
	return x
}
