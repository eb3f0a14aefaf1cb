package record

import (
	"math"
	"path/filepath"
	"reflect"
	"testing"
)

// Values from Python: statistics.quantiles(xs, n=4) (exclusive method).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{10, 3, 7, 1, 9}, 2, 7, 9.5},
		{[]float64{4, 2}, 1.5, 3, 4.5},
		{[]float64{5}, 5, 5, 5},
		{nil, 0, 0, 0},
	} {
		q1, q2, q3 := Quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// Other cut points follow the same rule: statistics.quantiles(xs, n=8)[0]
// and statistics.quantiles(range(1, 201), n=100)[98].
func TestQuantileMatchesPython(t *testing.T) {
	if got := Quantile([]float64{5, 1, 4, 2, 3}, 0.125); math.Abs(got-0.75) > 1e-12 {
		t.Errorf("octile of 1..5 = %v, want 0.75 (extrapolated below the smallest value, as Python does)", got)
	}
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(200 - i)
	}
	if got := Quantile(xs, 0.99); math.Abs(got-198.99) > 1e-9 {
		t.Errorf("p99 of 1..200 = %v, want 198.99", got)
	}
}

func recs(workload, metric string, vals ...float64) []Run {
	out := make([]Run, len(vals))
	for i, v := range vals {
		out[i] = Run{Workload: workload, Run: i, Metrics: map[string]float64{metric: v}}
	}
	return out
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH.json")
	want := File{Schema: Schema, NProc: 2, Threads: 2, GoVersion: "go", RunSeconds: 20,
		Runs: append(recs("w", "m_x", 1.5, 2.5), Run{Workload: "w", Traced: true, Seed: 7, Attempted: 3,
			Metrics: map[string]float64{"layer.count": 4}})}
	if err := want.Write(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*got, want) {
		t.Errorf("read back %+v, wrote %+v", *got, want)
	}
	if err := (&File{Schema: Schema}).Write(path); err != nil {
		t.Fatal(err)
	}
	if got, err = Load(path); err != nil || len(got.Runs) != 0 {
		t.Errorf("a file without runs read back as %+v, %v", got, err)
	}
}

func TestCompareVerdicts(t *testing.T) {
	specs := []Spec{{Name: "lat_ms", Unit: "ms", Better: "lower", Bound: 0.1}, {Name: "speed_x", Unit: "x", Better: "higher", Bound: 0.1}}
	for _, c := range []struct {
		name    string
		metric  string
		a, b    []float64
		verdict string
	}{
		{"same", "lat_ms", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{10.02, 9.95, 10.1, 10, 9.9}, Unchanged},
		{"slower latency", "lat_ms", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{12, 12.1, 11.9, 12, 12.2}, Regressed},
		{"faster latency", "lat_ms", []float64{10, 10.1, 9.9, 10, 10.05}, []float64{8, 8.1, 7.9, 8, 8.05}, Improved},
		{"lower speedup is worse", "speed_x", []float64{2, 2.01, 1.99, 2, 2.02}, []float64{1.7, 1.71, 1.69, 1.7, 1.72}, Regressed},
		{"higher speedup is better", "speed_x", []float64{2, 2.01, 1.99, 2, 2.02}, []float64{2.4, 2.41, 2.39, 2.4, 2.42}, Improved},
		{"wide and interleaved", "lat_ms", []float64{8, 10, 12, 14, 9}, []float64{9, 13, 11, 15, 10}, Unresolved},
		{"wide but every run worse", "lat_ms", []float64{8, 10, 12, 14, 9}, []float64{20, 24, 28, 22, 30}, Regressed},
	} {
		rows := Compare(recs("w", c.metric, c.a...), recs("w", c.metric, c.b...), specs)
		if len(rows) != 1 {
			t.Fatalf("%s: %d rows, want 1", c.name, len(rows))
		}
		if rows[0].Verdict != c.verdict {
			t.Errorf("%s: verdict %s (worse %+.3f, spreads %.3f/%.3f), want %s",
				c.name, rows[0].Verdict, rows[0].Worse, rows[0].A.Spread, rows[0].B.Spread, c.verdict)
		}
	}
}
