package main

import (
	"math"
	"sort"
	"time"

	"repro/bench/record"
)

func median(xs []float64) float64 { return record.Quantile(xs, 0.5) }

// summary is what the harness prints for one metric: the median over
// rounds with the quartiles and the sample count beside it.
type summary struct {
	Median, P25, P75 float64
	N                int
}

func summarize(xs []float64) summary {
	q1, med, q3 := record.Quartiles(xs)
	return summary{med, q1, q3, len(xs)}
}

// quietFrac is the share of a cell's timed calls that its quiet time
// averages.
const quietFrac = 0.10

// quiet is a cell's time per call while the host left it alone: the mean
// of the fastest tenth of its timed calls (of the fastest one when there
// are fewer than ten). Other tenants stretch a call by anything from
// nothing to more than its own length, for seconds on end, and stretch
// different code by different factors, so a median moves with how much
// of the run the host disturbed; the fast end of the distribution does
// not.
func quiet(calls []float64) float64 {
	if len(calls) == 0 {
		return 0
	}
	sorted := append([]float64(nil), calls...)
	sort.Float64s(sorted)
	n := int(quietFrac * float64(len(sorted)))
	if n < 1 {
		n = 1
	}
	var sum float64
	for _, t := range sorted[:n] {
		sum += t
	}
	return sum / float64(n)
}

// ratios divides num by den round by round. A round whose denominator
// is not positive is dropped rather than reported as +Inf.
func ratios(num, den []float64) []float64 {
	n := len(num)
	if len(den) < n {
		n = len(den)
	}
	out := make([]float64, 0, n)
	for r := 0; r < n; r++ {
		if den[r] > 0 {
			out = append(out, num[r]/den[r])
		}
	}
	return out
}

// sumRounds adds per-round series element-wise, truncated to the
// shortest one.
func sumRounds(series ...[]float64) []float64 {
	if len(series) == 0 {
		return nil
	}
	n := len(series[0])
	for _, s := range series[1:] {
		if len(s) < n {
			n = len(s)
		}
	}
	out := make([]float64, n)
	for _, s := range series {
		for r := 0; r < n; r++ {
			out[r] += s[r]
		}
	}
	return out
}

// safeDiv is a/b, or 0 when b is 0, so a metric can never print NaN/Inf.
func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// maxBatch caps the calibrated batch size so a cell that measures as
// (nearly) free cannot turn one round into millions of calls.
const maxBatch = 1 << 16

// calibrate picks how many back-to-back calls of run make one timed
// sample at least floor long. It never returns less than 1. The first
// call is the cell's warm-up and is not timed. An error ends calibration with the
// batch size reached so far; the timed rounds will report it.
func calibrate(run func() error, floor time.Duration) int {
	k := 1
	if err := run(); err != nil { // cold call: not a basis for k
		return k
	}
	for {
		start := time.Now()
		for i := 0; i < k; i++ {
			if err := run(); err != nil {
				return k
			}
		}
		dt := time.Since(start)
		if dt >= floor || k >= maxBatch {
			return k
		}
		// Aim a little past the floor so timing jitter does not leave
		// the final batch short, and at least double so the loop ends.
		next := k * 2
		if dt > 0 {
			if want := int(math.Ceil(1.2 * float64(k) * float64(floor) / float64(dt))); want > next {
				next = want
			}
		} else {
			next = k * 16
		}
		if next > maxBatch {
			next = maxBatch
		}
		k = next
	}
}
