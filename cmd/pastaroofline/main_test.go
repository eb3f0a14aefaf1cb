package main

import (
	"bytes"
	"regexp"
	"strings"
	"testing"

	"repro/internal/platform"
	"repro/internal/roofline"
)

// TestPlatformCurves: without the host measurement, run prints one
// curve per paper platform, each with as many samples as -points asks
// and a mark for each of the five kernels.
func TestPlatformCurves(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-host", "-points", "4"}, &stdout, &stderr); code != 0 {
		t.Fatalf("run = %d, want 0 (stderr: %s)", code, stderr.String())
	}
	plats := platform.All()
	curves := strings.Split(stdout.String(), "# Roofline ")[1:]
	if len(plats) != 4 || len(curves) != len(plats) {
		t.Fatalf("%d curves for %d platforms, want one for each of the paper's 4:\n%s", len(curves), len(plats), stdout.String())
	}
	sample := regexp.MustCompile(`(?m)^ +[0-9.]+ +[0-9.]+ +[0-9.]+ +[0-9.]+$`)
	for i, c := range curves {
		name := strings.Fields(c)[0]
		if want := plats[i].Name + ":"; name != want {
			t.Errorf("curve %d is %q, want %q", i, name, want)
		}
		if n := len(sample.FindAllString(c, -1)); n != 4 {
			t.Errorf("%s has %d samples, want 4", name, n)
		}
		for _, k := range roofline.Kernels {
			if !regexp.MustCompile(`(?m)^  ` + k.String() + ` +OI=`).MatchString(c) {
				t.Errorf("%s has no %s mark", name, k)
			}
		}
	}
}

func TestUnknownFlagExits2(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-no-such-flag"}, &stdout, &stderr); code != 2 {
		t.Fatalf("run = %d, want 2", code)
	}
	if stderr.Len() == 0 || stdout.Len() != 0 {
		t.Fatalf("usage error: stdout %q, stderr %q; want only stderr", stdout.String(), stderr.String())
	}
}
