package main

import (
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/kernelreg"
	"repro/internal/tensor"
)

// section returns the lines of out after the first line starting with
// header, up to the next blank line.
func section(out, header string) []string {
	lines := strings.Split(out, "\n")
	for i, l := range lines {
		if strings.HasPrefix(l, header) {
			var rows []string
			for _, r := range lines[i+1:] {
				if strings.TrimSpace(r) == "" {
					break
				}
				rows = append(rows, r)
			}
			return rows
		}
	}
	return nil
}

func TestVariantsPrintsOneRowPerPair(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-variants"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	rows := section(stdout.String(), "Kernel ")
	grid := kernelreg.Grid()
	if len(rows) != len(grid) {
		t.Fatalf("%d rows for %d (kernel, format) pairs:\n%s", len(rows), len(grid), stdout.String())
	}
	for i, pr := range grid {
		if f := strings.Fields(rows[i]); f[0] != pr.Kernel.String() || f[1] != pr.Format.String() {
			t.Errorf("row %d = %q, want %v/%v", i, rows[i], pr.Kernel, pr.Format)
		}
	}
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-blockbits", "0", "-id", "nell2"},
		{},
		{"-nnz", "2000"},
	} {
		var stdout, stderr strings.Builder
		if code := run(args, &stdout, &stderr); code != 2 {
			t.Errorf("run(%q) = %d, want 2", args, code)
		}
		if stderr.Len() == 0 {
			t.Errorf("run(%q) said nothing on stderr", args)
		}
	}
}

func TestDatasetPrintsEveryMode(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-id", "nell2", "-nnz", "2000"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	rows := section(stdout.String(), "  mode ")
	if len(rows) != 3 {
		t.Fatalf("%d per-mode rows for the order-3 nell2 stand-in:\n%s", len(rows), stdout.String())
	}
	for n, r := range rows {
		if f := strings.Fields(r); f[0] != strconv.Itoa(n) {
			t.Errorf("row %d = %q, want mode %d", n, r, n)
		}
	}
}

func TestTiledFilePrintsTileDirectory(t *testing.T) {
	x := tensor.RandomCOO([]tensor.Index{40, 30, 20}, 1200, rand.New(rand.NewSource(1)))
	path := filepath.Join(t.TempDir(), "x.bten")
	if err := tensor.WriteFileTiled(path, x, 300); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr strings.Builder
	if code := run([]string{"-f", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "load:    ") || !strings.Contains(out, "pstb-v3") {
		t.Fatalf("no v3 load line:\n%s", out)
	}
	rows := section(out, "  tile ")
	if len(rows) != 4 {
		t.Fatalf("%d tile rows for 1200 non-zeros at 300 a tile:\n%s", len(rows), out)
	}
	var total int
	for _, r := range rows {
		nnz, err := strconv.Atoi(strings.Fields(r)[2])
		if err != nil {
			t.Fatalf("tile row %q: %v", r, err)
		}
		total += nnz
	}
	if total != x.NNZ() {
		t.Fatalf("tiles hold %d non-zeros, the file %d:\n%s", total, x.NNZ(), out)
	}
}

func TestUnreadableFileExits1(t *testing.T) {
	var stdout, stderr strings.Builder
	if code := run([]string{"-f", filepath.Join(t.TempDir(), "missing.tns")}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}
