package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernelreg"
	"repro/internal/metrics"
	"repro/internal/platform"
)

// TestModeledSeriesMatchCommitted is the golden of results/series: each
// committed figure holds one modeled row per tensor and registered
// (kernel, format) pair, and for a few tensors the rows runFigure builds
// at the committed stand-in size equal the committed rows bit for bit.
// Regenerate the files with
// `go run ./cmd/pastabench -exp fig4,fig5,fig6,fig7 -nnz 200000 -json results/series`.
func TestModeledSeriesMatchCommitted(t *testing.T) {
	type key struct{ tensor, kernel, format string }
	committed := map[string]map[key]jsonRow{}
	plats := map[string]*platform.Platform{}
	entries := append(dataset.RealTensors(), dataset.Synthetic()...)
	grid := kernelreg.Grid()
	for fig, plat := range map[string]string{"fig4": "Bluesky", "fig5": "Wingtip", "fig6": "DGX-1P", "fig7": "DGX-1V"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "results", "series", fig+".json"))
		if err != nil {
			t.Fatal(err)
		}
		var doc jsonFigure
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: %v", fig, err)
		}
		if doc.Figure != fig || doc.Platform != plat || !doc.PaperScale || doc.StandInNNZ != 200000 {
			t.Fatalf("%s: header %q/%q paper_scale=%v standin_nnz=%d", fig, doc.Figure, doc.Platform, doc.PaperScale, doc.StandInNNZ)
		}
		rows := map[key]jsonRow{}
		for _, r := range doc.Rows {
			rows[key{r.Tensor, r.Kernel, r.Format}] = r
		}
		if len(rows) != len(doc.Rows) || len(rows) != len(entries)*len(grid) {
			t.Fatalf("%s: %d rows (%d distinct), want one per tensor and pair: %d", fig, len(doc.Rows), len(rows), len(entries)*len(grid))
		}
		committed[fig] = rows
		if plats[fig], err = platform.ByName(plat); err != nil {
			t.Fatal(err)
		}
	}

	// pastabench's defaults at the committed size; the tensors are the
	// quickest to materialize of each order and kind.
	o := options{nnz: 200000, seed: 20200222, r: 16, blockBits: 7, paperScale: true}
	for _, id := range []string{"r1", "r2", "r10", "r12", "s13"} {
		e, err := dataset.ByID(id)
		if err != nil {
			t.Fatal(err)
		}
		x, err := dataset.Materialize(e, o.nnz, o.seed)
		if err != nil {
			t.Fatal(err)
		}
		ws := scaleWorkloads(metrics.Workloads(x, benchConfig(o)), e, o)
		for fig, rows := range committed {
			for _, pr := range grid {
				got := seriesRow(e, metrics.ModelFromWorkloads(plats[fig], ws, pr.Kernel, pr.Format))
				if want := rows[key{id, pr.Kernel.String(), pr.Format.String()}]; !reflect.DeepEqual(got, want) {
					t.Errorf("%s %s %s/%s:\n got       %+v\n committed %+v", fig, id, pr.Kernel, pr.Format, got, want)
				}
			}
		}
	}
}

// TestExperimentsSmoke runs the host-measured experiments at about 2 000
// non-zeros with one timed run each: every row must be a number, not an
// error, and the ablation must print all of its sections.
func TestExperimentsSmoke(t *testing.T) {
	o := options{nnz: 2000, seed: 1, runs: 1, r: 16, blockBits: 7, ranks: "1,2"}
	f, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = f
	func() {
		defer func() { os.Stdout = stdout }()
		runAblations(o)
		runOOCStreaming(o)
		runDistScaling(o)
	}()
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, "error") {
			t.Errorf("error row: %s", line)
		}
	}
	for _, want := range []string{"(a) ", "(b) ", "(c) ", "(d) ", "(e) ", "(f) ", "(g) ", "(h) ", "Out-of-core", "Distributed"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
}
