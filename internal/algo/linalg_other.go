//go:build !amd64

package algo

// The dense bodies have no assembly on this port: cpu.AVX2 stays false and
// mulSquare and gramInto run their Go loops.

func mulSquareAVX2(rows, sumsq []float64, src []float32, sq []float64, occ []int, n int) {
	panic("algo: no assembly body on this port")
}

func roundRowsAVX2(block, prod, scale []float64, factor []float32, occ []int, n int) {
	panic("algo: no assembly body on this port")
}

func gramAVX2(g, block []float64, n, cnt int) { panic("algo: no assembly body on this port") }
