package algo

// mulSquareAVX2 is mulSquare's product for the first n&^3 columns; it
// indexes without bounds checks.
//
//go:noescape
func mulSquareAVX2(rows, sumsq []float64, src []float32, sq []float64, occ []int, n int)

// roundRowsAVX2 is gramRowMajor's scale, round and copy for the first
// n&^3 columns; it indexes without bounds checks.
//
//go:noescape
func roundRowsAVX2(block, prod, scale []float64, factor []float32, occ []int, n int)

// gramAVX2 adds to g the entries gramInto's dot4 loop computes over the
// cnt row-major rows of block; it indexes without bounds checks.
//
//go:noescape
func gramAVX2(g, block []float64, n, cnt int)
