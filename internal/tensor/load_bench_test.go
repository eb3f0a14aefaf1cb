package tensor

import (
	"math/rand"
	"path/filepath"
	"testing"
)

// BenchmarkLoad is the load layer's own number: the program reader plus
// the caller's Validate — what the end-to-end benchmark's tensor.load
// cell times — on a file of each on-disk form, at the non-zero count
// and order of that benchmark's three service tensors (tiled v3 cut
// into 32 tiles / flat v2 / .tns text). Files are read back through the
// page cache.
//
//	go test -run '^$' -bench Load -cpu 1 ./internal/tensor
func BenchmarkLoad(b *testing.B) {
	for _, c := range []struct {
		name string
		file string
		dims []Index
		nnz  int
	}{
		{"tiled-5000x3", "t.bten", []Index{1500, 1100, 3600}, 5_000},
		{"bten-12500x4", "f.bten", []Index{800, 800, 800, 800}, 12_500},
		{"tns-37500x3", "x.tns", []Index{6000, 6000, 51}, 37_500},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := RandomCOO(c.dims, c.nnz, rand.New(rand.NewSource(1)))
			path := filepath.Join(b.TempDir(), c.file)
			var err error
			if c.file == "t.bten" {
				err = WriteFileTiled(path, x, x.NNZ()/32+1)
			} else {
				err = WriteFile(path, x)
			}
			if err != nil {
				b.Fatal(err)
			}
			_, st, err := ReadFileStats(path)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(st.Bytes)
			b.ReportAllocs()
			for b.Loop() {
				t, err := ReadFile(path)
				if err != nil {
					b.Fatal(err)
				}
				if err := t.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
