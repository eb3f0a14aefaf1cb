// Package record is the on-disk form of benchmark results (the
// BENCH_<n>.json trajectory files) and the comparison of two result
// sets under the bounds BENCHMARK.json fixes. bench -all writes these
// files and its A/A table with it; bench/compare reads them.
package record

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// Schema tags a results file.
const Schema = "pasta-bench/v2"

// Run is one run of one workload: every metric it printed, by name. The
// units are BENCHMARK.json's.
type Run struct {
	Workload string `json:"workload"`
	// Run is the run's position in its sequence. Untraced runs 2i and
	// 2i+1 share seed i: the even runs are set A and the odd runs set B
	// of the A/A comparison. Traced runs are numbered on their own.
	Run       int                `json:"run"`
	Seed      int64              `json:"seed"`
	Traced    bool               `json:"traced"` // per-layer metrics from a traced run, else end-to-end metrics
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
}

// File is one point of the trajectory: every run plus the host the runs
// were taken on.
type File struct {
	Schema     string  `json:"schema"`
	NProc      int     `json:"nproc"`
	Threads    int     `json:"threads"`
	GoVersion  string  `json:"goVersion"`
	RunSeconds float64 `json:"runSeconds"`
	Claim      *string `json:"claim"` // a results file that defines the benchmark claims no gain: null
	Runs       []Run   `json:"runs"`
}

// Load reads a results file.
func Load(path string) (*File, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f File
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if f.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, f.Schema, Schema)
	}
	return &f, nil
}

// Write stores the file as JSON with one run per line, so that a diff of
// two trajectory points lines up run by run.
func (f *File) Write(path string) error {
	head := *f
	head.Runs = nil
	data, err := json.MarshalIndent(head, "", " ")
	if err != nil {
		return err
	}
	var buf bytes.Buffer
	buf.Write(bytes.TrimSuffix(data, []byte("null\n}"))) // ends with `"runs": `
	buf.WriteString("[")
	for i, r := range f.Runs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		if i > 0 {
			buf.WriteString(",")
		}
		buf.WriteString("\n  ")
		buf.Write(line)
	}
	buf.WriteString("\n ]\n}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Write stores v as indented JSON.
func Write(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Spec is what BENCHMARK.json fixes for one end-to-end metric.
type Spec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// Specs reads the end-to-end metric declarations of a BENCHMARK.json.
func Specs(path string) ([]Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc struct {
		EndToEnd []Spec `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.EndToEnd) == 0 {
		return nil, fmt.Errorf("%s: no end_to_end metrics", path)
	}
	return doc.EndToEnd, nil
}

// Quantile returns the q-quantile (0 < q < 1) of xs by the exclusive
// method of Python's statistics.quantiles, which the driver uses: the
// value at position q*(n+1) of the sorted sample, interpolated between
// its neighbours and, like Python, extrapolated from the outermost two
// values when that position lies beyond them. A single value is its own
// quantile; an empty sample gives 0. It is the one quantile of the
// benchmark: a run's medians over rounds and the comparison of runs
// both use it.
func Quantile(xs []float64, q float64) float64 {
	n := len(xs)
	switch n {
	case 0:
		return 0
	case 1:
		return xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n+1)
	j := int(pos)
	if j < 1 {
		j = 1
	}
	if j > n-1 {
		j = n - 1
	}
	frac := pos - float64(j)
	return s[j-1]*(1-frac) + s[j]*frac
}

// Quartiles returns the first quartile, median and third quartile of xs
// as statistics.quantiles(xs, n=4) gives them.
func Quartiles(xs []float64) (q1, med, q3 float64) {
	return Quantile(xs, 0.25), Quantile(xs, 0.5), Quantile(xs, 0.75)
}

// Side summarises one result set for one (workload, metric).
type Side struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Runs   int     `json:"runs"`
	// Spread is (Q3 - Q1) / Median: the run-to-run spread as a share of
	// the median, the quantity the driver holds against the bound.
	Spread float64 `json:"spread"`
}

func sideOf(xs []float64) Side {
	q1, med, q3 := Quartiles(xs)
	s := Side{Median: med, Q1: q1, Q3: q3, Runs: len(xs)}
	if med != 0 {
		s.Spread = (q3 - q1) / med
	}
	return s
}

// Verdicts of a comparison.
const (
	Improved   = "improved"
	Unchanged  = "unchanged"
	Regressed  = "regressed"
	Unresolved = "unresolved"
)

// Row compares sides A (the base) and B for one (workload, metric).
type Row struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Better   string  `json:"better"`
	Bound    float64 `json:"bound"`
	A        Side    `json:"a"`
	B        Side    `json:"b"`
	// Ratio is B's median over A's median; its base is A.Median.
	Ratio float64 `json:"ratio"`
	// Worse is how much worse B's median is than A's as a share of A's
	// median, in the metric's own direction (negative: B is better).
	Worse   float64 `json:"worse"`
	Verdict string  `json:"verdict"`
}

// Values collects the values of (workload, metric) in run order, from
// the runs that printed that metric.
func Values(runs []Run, workload, metric string) []float64 {
	var out []float64
	for _, r := range runs {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			out = append(out, v)
		}
	}
	return out
}

// Compare builds one row per (workload, end-to-end metric) present on
// both sides, in the order workloads first appear in a and metrics are
// declared in specs.
//
// A pair is unresolved when the run-to-run spread of either side is
// wider than the bound and the two sides' runs interleave (neither side
// has every run better than every run of the other). Otherwise it is
// regressed when B's median is worse than A's by more than the bound,
// improved when it is better by more than the wider of the two sides'
// spreads, and unchanged in between.
func Compare(a, b []Run, specs []Spec) []Row {
	var workloads []string
	seen := map[string]bool{}
	for _, r := range a {
		if !seen[r.Workload] {
			seen[r.Workload] = true
			workloads = append(workloads, r.Workload)
		}
	}
	var rows []Row
	for _, w := range workloads {
		for _, sp := range specs {
			av, bv := Values(a, w, sp.Name), Values(b, w, sp.Name)
			if len(av) == 0 || len(bv) == 0 {
				continue
			}
			row := Row{Workload: w, Metric: sp.Name, Unit: sp.Unit, Better: sp.Better, Bound: sp.Bound,
				A: sideOf(av), B: sideOf(bv)}
			if row.A.Median != 0 {
				row.Ratio = row.B.Median / row.A.Median
				row.Worse = (row.B.Median - row.A.Median) / row.A.Median
				if sp.Better == "higher" {
					row.Worse = -row.Worse
				}
			}
			spread := row.A.Spread
			if row.B.Spread > spread {
				spread = row.B.Spread
			}
			switch {
			case spread > sp.Bound && interleave(av, bv):
				row.Verdict = Unresolved
			case row.Worse > sp.Bound:
				row.Verdict = Regressed
			case row.Worse < -spread:
				row.Verdict = Improved
			default:
				row.Verdict = Unchanged
			}
			rows = append(rows, row)
		}
	}
	return rows
}

// interleave reports whether neither side lies wholly beyond the other.
func interleave(a, b []float64) bool {
	minA, maxA := minMax(a)
	minB, maxB := minMax(b)
	return !(maxA < minB || maxB < minA)
}

func minMax(xs []float64) (lo, hi float64) {
	lo, hi = xs[0], xs[0]
	for _, x := range xs[1:] {
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	return lo, hi
}

// Format renders rows as the table both tools print: every ratio sits
// beside its base.
func Format(rows []Row) string {
	out := fmt.Sprintf("%-10s %-11s %-4s %12s %8s %12s %8s %8s %8s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A spread", "B median", "B spread", "B/A", "worse", "bound", "verdict")
	for _, r := range rows {
		out += fmt.Sprintf("%-10s %-11s %-4s %12.6g %7.2f%% %12.6g %7.2f%% %8.4f %+7.2f%% %5.0f%%  %s\n",
			r.Workload, r.Metric, r.Unit, r.A.Median, 100*r.A.Spread, r.B.Median, 100*r.B.Spread,
			r.Ratio, 100*r.Worse, 100*r.Bound, r.Verdict)
	}
	return out + "B/A is B's median over A's median (base: the A median column); worse is B against A in the metric's own direction\n"
}
