package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// uniformOp is one call on a Uniform: fill n values, or skip n.
type uniformOp struct {
	skip bool
	n    int
}

// checkUniformOps runs ops on got and the same draws on want's Float64,
// and fails at the first value whose bits differ from Randomize's.
func checkUniformOps(t *testing.T, name string, got *Uniform, want *rand.Rand, ops []uniformOp) {
	t.Helper()
	drawn := 0
	for _, op := range ops {
		if op.skip {
			got.Skip(op.n)
			for range op.n {
				want.Float64()
			}
			drawn += op.n
			continue
		}
		dst := make([]Value, op.n)
		got.Fill(dst)
		for i, v := range dst {
			if w := Value(want.Float64()); math.Float32bits(v) != math.Float32bits(w) {
				t.Fatalf("%s: value %d (fill of %d from draw %d) = %v, rand.Float64 gives %v", name, drawn+i, op.n, drawn, v, w)
			}
		}
		drawn += op.n
	}
}

// uniformLengths are the fill and skip lengths: empty, one, around the
// lag, around a block, and one CP-ALS set-up's draws on skewed3d's
// service tensor (10 711 + 10 711 + 25 rows at R = 16).
var uniformLengths = []int{0, 1, 606, 607, 608, uniformBlock - 1, uniformBlock, uniformBlock + 1, 343152}

// uniformSequences are the call sequences run on each stream: fills
// only, and fills interleaved with skips in both phases.
func uniformSequences() map[string][]uniformOp {
	seqs := map[string][]uniformOp{}
	for name, skipAt := range map[string]int{"fill": -1, "skip-odd": 1, "skip-even": 0} {
		var ops []uniformOp
		for i, n := range uniformLengths {
			ops = append(ops, uniformOp{skip: skipAt >= 0 && i%2 == skipAt, n: n})
		}
		seqs[name] = append(ops, uniformOp{n: 5}) // a skip at the end is read past too
	}
	return seqs
}

// TestUniformMatchesMathRand holds the bulk generator to
// rand.New(rand.NewSource(s)).Float64() value for value, rounded as
// Randomize rounds: seeds that math/rand maps to its special cases (0,
// −1, MinInt64) and ordinary ones, fills and skips of every length that
// meets a boundary of the lag or of a block.
func TestUniformMatchesMathRand(t *testing.T) {
	for _, seed := range []int64{0, 1, 7, -1, 1 << 40, math.MinInt64} {
		for name, ops := range uniformSequences() {
			got := NewUniform(rand.NewSource(seed).(rand.Source64))
			checkUniformOps(t, fmt.Sprintf("seed %d/%s", seed, name), got, rand.New(rand.NewSource(seed)), ops)
		}
	}
}

// lagSource is a rand.Source64 that yields the words first and then
// continues math/rand's recurrence over everything it yielded.
type lagSource struct{ first, ys []uint64 }

func (s *lagSource) Uint64() uint64 {
	y, k := uint64(0), len(s.ys)
	if k < len(s.first) {
		y = s.first[k]
	} else {
		y = s.ys[k-uniformLag] + s.ys[k-uniformTap]
	}
	s.ys = append(s.ys, y)
	return y
}

func (s *lagSource) Int63() int64 { return int64(s.Uint64() & uniformMask) }
func (s *lagSource) Seed(int64)   { panic("lagSource is not reseeded") }

// TestUniformRedraws covers the branch that a seeded math/rand
// stream takes about once in 2⁵⁴ draws: a masked word of at least
// 2⁶³ − 512 rounds to 1.0 and is drawn again. Two test sources:
//   - spread: the first words lie in [2⁶³ − 513, 2⁶³ − 1] or are chosen
//     so that the recurrence's sums land there (the top bit set at
//     random: the mask drops it), so redraws occur among the source's
//     own words, in generated ones, as the seeded block's last word and
//     across fills and skips;
//   - at-threshold: the first word is 2⁶³ − 512 and the rest 0, so every
//     word is a multiple of it and the only redraws are words of exactly
//     2⁶³ − 512, which a refill must not take for a block without one.
//
// The reference is rand.Rand's Float64 over the same word sequence.
func TestUniformRedraws(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	spread := make([]uint64, uniformLag)
	top := func() uint64 { return uint64(rng.Intn(2)) << 63 }
	for i := uniformLag - uniformTap; i < uniformLag; i++ { // the near terms of y_607 … y_879: small
		spread[i] = uint64(rng.Intn(256)) | top()
	}
	for i := 0; i < uniformTap; i++ { // the far terms: y_{607+i} masked lands in [2⁶³ − 513, 2⁶³ − 1]
		d := uint64(rng.Intn(513))
		if i%5 == 0 {
			d = uint64(i % 2) // 2⁶³ − 513 and 2⁶³ − 512: both sides of the threshold
		}
		spread[i] = (uniformRedraw - 1 - spread[i+uniformLag-uniformTap]&uniformMask + d) | top()
	}
	for i := uniformTap; i < uniformLag-uniformTap; i++ {
		spread[i] = (uniformRedraw - 1 + uint64(rng.Intn(513))) | top()
	}
	spread[uniformLag-1] = uniformRedraw | top()
	atThreshold := make([]uint64, uniformLag)
	atThreshold[0] = uniformRedraw
	for srcName, first := range map[string][]uint64{"spread": spread, "at-threshold": atThreshold} {
		for name, ops := range uniformSequences() {
			name = srcName + "/" + name
			ref := &lagSource{first: first}
			checkUniformOps(t, name, NewUniform(&lagSource{first: first}), rand.New(ref), ops)
			redraws := 0
			for _, y := range ref.ys[uniformLag:] {
				if y&uniformMask >= uniformRedraw {
					redraws++
				}
			}
			if redraws < uniformLag {
				t.Fatalf("%s: %d redraws in %d generated words", name, redraws, len(ref.ys)-uniformLag)
			}
		}
	}
}
