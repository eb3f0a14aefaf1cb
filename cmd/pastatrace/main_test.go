package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// TestValidTraceSummaryOrdersByTotal: a trace obs writes validates,
// and -summary lists one row per (category, name), the largest total
// first; instants count in the header only.
func TestValidTraceSummaryOrdersByTotal(t *testing.T) {
	ms := time.Millisecond
	path := filepath.Join(t.TempDir(), "trace.json")
	err := obs.WriteChromeTraceFile(path, []obs.Span{
		{Name: "parallel.For", Phase: obs.PhaseChunk, Worker: -1, Start: 0, Dur: 2 * ms},
		{Name: "prepare", Phase: obs.PhasePrepare, Worker: -1, Start: ms, Dur: 5 * ms},
		{Name: "parallel.For", Phase: obs.PhaseChunk, Worker: 0, Start: 2 * ms, Dur: 2 * ms},
		{Name: "trial", Phase: obs.PhaseTrial, Worker: -1, Start: 3 * ms, Dur: ms},
		{Name: "fallback", Phase: obs.PhaseFallback, Worker: -1, Instant: true, Start: 4 * ms},
	})
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-validate", "-summary", path}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	out := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if len(out) != 6 || out[0] != path+": 5 events, valid" || out[1] != path+": 5 events (1 instants)" {
		t.Fatalf("want a validity line, a header, a column line and three rows; got:\n%s", stdout.String())
	}
	var rows []string
	for _, line := range out[3:] {
		f := strings.Fields(line)
		rows = append(rows, f[0]+"/"+f[1]+"×"+f[2])
	}
	if got, want := strings.Join(rows, " "), "prepare/prepare×1 chunk/parallel.For×2 trial/trial×1"; got != want {
		t.Fatalf("summary rows %q, want %q (descending total: 5, 4, 1 ms)", got, want)
	}
}

func TestMalformedTraceExits1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"traceEvents":[{"ph":"X","ts":-1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{path}, &stdout, &stderr); code != 1 {
		t.Fatalf("run = %d, want 1 (stdout: %s)", code, stdout.String())
	}
	if !strings.HasPrefix(stderr.String(), "pastatrace: "+path+": ") {
		t.Fatalf("stderr %q does not name the file", stderr.String())
	}
}

func TestNoArgumentsExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run(nil, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if !strings.HasPrefix(stderr.String(), "usage: pastatrace") || stdout.Len() != 0 {
		t.Fatalf("usage error: stdout %q, stderr %q; want only the usage line", stdout.String(), stderr.String())
	}
}
