package dataset

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
)

// materializeHash is FNV-64a over a tensor's dims, index columns and
// value bits, little-endian.
func materializeHash(x *tensor.COO) uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(u uint32) {
		binary.LittleEndian.PutUint32(b[:], u)
		h.Write(b[:])
	}
	for _, d := range x.Dims {
		put(d)
	}
	for _, col := range x.Inds {
		for _, i := range col {
			put(i)
		}
	}
	for _, v := range x.Vals {
		put(math.Float32bits(v))
	}
	return h.Sum64()
}

// TestMaterializeGolden pins Materialize's output, bit for bit, for one
// entry of every generator class at three sizes, so a change to a
// generator's internals (its duplicate set, say) that alters a single
// draw, index or value shows here.
func TestMaterializeGolden(t *testing.T) {
	golden := map[string]uint64{
		"vast/500":     0x97c8782be7f66cd8,
		"vast/5000":    0xae7286d4f2f8fa1c,
		"vast/40000":   0x7895eaad1c656b67,
		"choa/500":     0xee2e78087c877efa,
		"choa/5000":    0x915ec04da07d4ba4,
		"choa/40000":   0xa31a84576b6dcef0,
		"darpa/500":    0x3f4858f9e571f0fb,
		"darpa/5000":   0xd2580cbad7f4631a,
		"darpa/40000":  0x2a536335831d7505,
		"regS/500":     0x772ee272d5d4e691,
		"regS/5000":    0x4cd8e9e45a6420cc,
		"regS/40000":   0x59f7de21b22d09a9,
		"regS4d/500":   0xa919ce1c86db3089,
		"regS4d/5000":  0x7e91d621307c6190,
		"regS4d/40000": 0x98567c31307afeed,
		"irrS/500":     0x2e63a4026e11c6f1,
		"irrS/5000":    0x9a6eface28c72f12,
		"irrS/40000":   0xa6b029646dcfcb8,
		"irrS4d/500":   0x5779eff3c9c0c3de,
		"irrS4d/5000":  0x136023e35d959295,
		"irrS4d/40000": 0x7216f9d91f1dcf7,
	}
	for _, id := range []string{"vast", "choa", "darpa", "regS", "regS4d", "irrS", "irrS4d"} {
		e, err := ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		for _, nnz := range []int{500, 5000, 40000} {
			x, err := Materialize(e, nnz, 7)
			if err != nil {
				t.Fatal(err)
			}
			key := fmt.Sprintf("%s/%d", id, nnz)
			got := materializeHash(x)
			if want, ok := golden[key]; !ok || got != want {
				t.Errorf("%s: hash %#x, want %#x", key, got, want)
			}
		}
	}
}
