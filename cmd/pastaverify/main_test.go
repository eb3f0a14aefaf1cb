package main

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestRunExitCodes drives run(args, stdout, stderr) through its exits: a
// sweep that checks nothing is a usage error, not a pass.
func TestRunExitCodes(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.tns")
	for _, tc := range []struct {
		name string
		args []string
		want int
	}{
		{"no non-zeros", []string{"-nnz", "0"}, 2},
		{"NaN tolerance", []string{"-tol", "NaN"}, 2},
		{"infinite tolerance", []string{"-tol", "+Inf"}, 2},
		{"zero tolerance", []string{"-tol", "0"}, 2},
		{"no such kernel", []string{"-kernel", "nosuch"}, 1},
		{"unreadable file", []string{"-nnz", "200", "-kernel", "ts", "-backend", "omp", "-f", missing}, 1},
	} {
		var stdout, stderr strings.Builder
		if got := run(tc.args, &stdout, &stderr); got != tc.want {
			t.Errorf("%s: run(%q) = %d, want %d; stderr:\n%s", tc.name, tc.args, got, tc.want, stderr.String())
		}
		if strings.Contains(stdout.String(), "all implementations agree") {
			t.Errorf("%s: run(%q) claims agreement:\n%s", tc.name, tc.args, stdout.String())
		}
	}
}

// TestRunSweepAgrees runs a narrow sweep end to end: every check of the
// selected variants is reported and passes.
func TestRunSweepAgrees(t *testing.T) {
	var stdout, stderr strings.Builder
	if got := run([]string{"-nnz", "200", "-kernel", "ts", "-backend", "omp"}, &stdout, &stderr); got != 0 {
		t.Fatalf("run = %d, want 0; stdout:\n%s\nstderr:\n%s", got, stdout.String(), stderr.String())
	}
	out := stdout.String()
	if !strings.Contains(out, "all implementations agree") {
		t.Fatalf("no agreement line:\n%s", out)
	}
	if n := strings.Count(out, "[ok]"); n != 8 {
		t.Fatalf("%d checks passed, want 8 (four cases, Ts on COO and HiCOO):\n%s", n, out)
	}
}
