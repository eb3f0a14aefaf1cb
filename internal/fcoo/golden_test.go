package fcoo

import (
	"reflect"
	"testing"

	"repro/internal/tensor"
	"repro/internal/tensortest"
)

// FromCOO and FromCOOMttkrp sort through tensor.SortedBy; a tensor the
// comparator-sort oracle ordered beforehand skips that sort. Both routes
// must build the same layout, for every mode of every corpus tensor.
func TestGoldenFromCOO(t *testing.T) {
	for _, c := range tensortest.Corpus(t) {
		order := c.X.Order()
		if order < 2 {
			continue
		}
		for mode := 0; mode < order; mode++ {
			for _, seg := range []int{0, 7} {
				want, err := FromCOO(tensortest.OracleSorted(c.X, tensor.ModeOrder(order, mode)), mode, seg)
				if err != nil {
					t.Fatal(err)
				}
				got, err := FromCOO(c.X, mode, seg)
				if err != nil {
					t.Fatalf("%s mode %d: %v", c.Name, mode, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s mode %d: %v", c.Name, mode, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s mode %d seg %d: Ttv layout differs from the comparator-sort build", c.Name, mode, seg)
				}

				outer := append([]int{mode}, tensor.OtherModes(order, mode)...)
				want, err = FromCOOMttkrp(tensortest.OracleSorted(c.X, outer), mode, seg)
				if err != nil {
					t.Fatal(err)
				}
				got, err = FromCOOMttkrp(c.X, mode, seg)
				if err != nil {
					t.Fatalf("%s mode %d: %v", c.Name, mode, err)
				}
				if err := got.Validate(); err != nil {
					t.Fatalf("%s mode %d: %v", c.Name, mode, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s mode %d seg %d: Mttkrp layout differs from the comparator-sort build", c.Name, mode, seg)
				}
			}
		}
	}
}
