package csf

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/cpu"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// bodyRanks cover no sixteen-column pass, one, two, an eight-column pass
// and every tail length the Go loops finish.
var bodyRanks = []int{1, 3, 7, 8, 9, 13, 15, 16, 17, 24, 32, 33}

// TestTreeMttkrpBodyBitIdentical: the prepared plan reproduces the
// recursive scalar loop it replaced bit for bit, on the Go loops and on
// the AVX2 fiber and chain-node bodies (cpu.AVX2 forced off and on):
// through both rungs on one thread and — roots own their rows — on two,
// and as balanced tasks at budgets that split roots (one thread: the
// tasks of a root commit in order); for every mode at the root of every
// tree of tensortest.MttkrpCases (the mixed chains among them, whose
// chain-node body hands nodes back); and for two trees whose first root
// the bodies cut into calls of at most cpu.CallNNZ leaves, one over long
// fibers, one over 30 000 chain nodes (90 000 leaves).
func TestTreeMttkrpBodyBitIdentical(t *testing.T) {
	for _, asm := range tensortest.BodySides() {
		tensortest.WithAVX2(asm, func() {
			for _, c := range tensortest.MttkrpCases(t) {
				x := c.X
				for mode := 0; mode < x.Order(); mode++ {
					tree, err := FromCOO(x, rootFirst(x.Order(), mode))
					if err != nil {
						t.Fatal(err)
					}
					for _, r := range bodyRanks {
						label := fmt.Sprintf("asm %v %s mode %d R %d", asm, c.Name, mode, r)
						sameAsOracle(t, label, tree, tensortest.SignedFactors(x, r, int64(r)), r)
					}
				}
			}
			for name, x := range map[string]*tensor.COO{"wide-root": wideRoot(), "long-chains": chainTensor(1, 30_000)} {
				tree, err := FromCOO(x, nil)
				if err != nil {
					t.Fatal(err)
				}
				if lo, hi := tree.leafRange(1, tree.FPtr[0][0], tree.FPtr[0][1]); hi-lo <= cpu.CallNNZ {
					t.Fatalf("%s: the first root holds %d leaves, one call's worth", name, hi-lo)
				}
				for _, r := range []int{16, 17} {
					label := fmt.Sprintf("asm %v %s R %d", asm, name, r)
					mats := tensortest.SignedFactors(x, r, int64(r))
					p, err := PrepareMttkrp(tree.Tree(), r)
					if err != nil {
						t.Fatal(err)
					}
					got, err := p.ExecuteSeq(mats)
					if err != nil {
						t.Fatal(err)
					}
					tensortest.SameBits(t, label, got, oracleRoot(tree, mats, r))
				}
			}
		})
	}
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

// TestTreeMttkrpOutOfRangePanicsAtSameNode corrupts one index of a tree —
// a leaf's row, a fiber's row, a node's row, a fiber's leaf pointer or a
// node's fiber pointer, under long fibers (order 3) and under chains
// (order 4) — and executes it with cpu.AVX2 off and on: both must panic
// with the same runtime error and leave the same output bits, the roots
// before the bad one committed.
func TestTreeMttkrpOutOfRangePanicsAtSameNode(t *testing.T) {
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
			label := fmt.Sprintf("%s R %d", bad.name, r)
			mats := tensortest.SignedFactors(bad.x, r, 7)
			var msgs []string
			var first *tensor.Matrix
			for _, asm := range tensortest.BodySides() {
				c, err := FromCOO(bad.x, nil)
				if err != nil {
					t.Fatal(err)
				}
				bad.corrupt(c)
				p, err := PrepareMttkrp(c.Tree(), r)
				if err != nil {
					t.Fatal(err)
				}
				err = func() (err runtime.Error) {
					defer func() { err, _ = recover().(runtime.Error) }()
					tensortest.WithAVX2(asm, func() { p.ExecuteSeq(mats) })
					return nil
				}()
				if err == nil {
					t.Fatalf("%s asm %v: no runtime error panic", label, asm)
				}
				msgs = append(msgs, err.Error())
				if first == nil {
					first = p.Out
					committed := false
					for _, v := range first.Data {
						committed = committed || v != 0
					}
					if !committed {
						t.Fatalf("%s: the panic came before any root was committed", label)
					}
				}
				tensortest.SameBits(t, fmt.Sprintf("%s asm %v", label, asm), p.Out, first)
			}
			if len(msgs) == 2 && msgs[0] != msgs[1] {
				t.Fatalf("%s: the Go loops panic with %q, the AVX2 bodies with %q", label, msgs[0], msgs[1])
			}
		}
	}
}
