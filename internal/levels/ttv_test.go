package levels

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/parallel"
	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// TestTreeTtvBodyBitIdentical holds the tree Ttv cells — CSF, bCSF and the
// blocked-product-mode HiCOO hierarchy, all core fiber plans on the Ttv
// body — to the textbook loop over their leaf fibers, bit for bit, on
// every side of tensortest.BodySides: every mode of
// tensortest.MttkrpCases, through ExecuteSeq, one-thread owner ExecuteOMP
// and ExecuteFibers entered at lo = 1, with −0, ±Inf and NaN in the
// vector (the NaN x86 makes of ∞ − ∞, so that no fiber sees two
// payloads).
func TestTreeTtvBodyBitIdentical(t *testing.T) {
	special := []tensor.Value{tensor.Value(math.Copysign(0, -1)), tensor.Value(math.Inf(1)), tensor.Value(math.Inf(-1)), math.Float32frombits(0xffc00000)}
	var b tensortest.Body
	for i, c := range tensortest.MttkrpCases(t) {
		x := c.X
		for mode := 0; mode < x.Order(); mode++ {
			rng := rand.New(rand.NewSource(int64(10*i + mode)))
			v := make(tensor.Vector, x.Dims[mode])
			for k := range v {
				v[k] = tensor.Value(2*rng.Float64() - 1)
				if rng.Intn(8) == 0 {
					v[k] = special[rng.Intn(len(special))]
				}
			}
			for _, sig := range []Signature{CSFSig(x.Order()), BCSFSig(x.Order(), 2), HiCOOSig(x.Order(), 2)} {
				label := fmt.Sprintf("%s %s mode %d", c.Name, sig.Name, mode)
				h, err := Build(x, sig, tensor.ModeOrder(x.Order(), mode))
				if err != nil {
					t.Fatal(label, err)
				}
				view, _, err := leafFibers(h, mode)
				if err != nil {
					t.Fatal(label, err)
				}
				p, err := PrepareTtv(h, mode)
				if err != nil {
					t.Fatal(label, err)
				}
				mf := p.NumFibers()
				oracle := func(lo int) func([]tensor.Value) {
					return func(out []tensor.Value) {
						for f := lo; f < mf; f++ {
							var acc tensor.Value
							for m := view.Fptr[f]; m < view.Fptr[f+1]; m++ {
								acc += view.Vals[m] * v[view.KInd[m]]
							}
							out[f] = acc
						}
					}
				}
				// Each run starts the plan's output from the case's fill,
				// so that a value it leaves alone shows.
				run := func(exec func() error) func([]tensor.Value) {
					return func(out []tensor.Value) {
						copy(p.Out.Vals, out)
						if err := exec(); err != nil {
							t.Fatal(label, err)
						}
						copy(out, p.Out.Vals)
					}
				}
				lo := min(1, mf)
				b.Cases = append(b.Cases,
					tensortest.BodyCase{Name: label + " ExecuteSeq", Size: mf, Oracle: oracle(0),
						Run: run(func() error { _, err := p.ExecuteSeq(v); return err })},
					tensortest.BodyCase{Name: label + " ExecuteOMP", Size: mf, Oracle: oracle(0),
						Run: run(func() error {
							_, err := p.ExecuteOMP(v, parallel.Options{Threads: 1, Strategy: parallel.Owner})
							return err
						})},
					tensortest.BodyCase{Name: label + " ExecuteFibers", Size: mf, Fill: 7, Oracle: oracle(lo),
						Run: run(func() error { _, err := p.ExecuteFibers(lo, mf, v); return err })},
				)
			}
		}
	}
	tensortest.CheckBody(t, b)
}
