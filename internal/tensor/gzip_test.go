package tensor

import (
	"math/rand"
	"os"
	"path/filepath"
	"testing"
)

func TestTNSGzipRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "x.tns.gz")
	rng := rand.New(rand.NewSource(77))
	x := RandomCOO([]Index{30, 30, 30}, 500, rng)
	if err := WriteTNSFile(path, x); err != nil {
		t.Fatal(err)
	}
	// The file must actually be gzip (magic bytes 1f 8b).
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) < 2 || raw[0] != 0x1f || raw[1] != 0x8b {
		t.Fatal("output is not gzip-compressed")
	}
	y, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if d := AbsDiff(x, y); d > 1e-6 {
		t.Fatalf("gzip roundtrip diff %v", d)
	}
}

func TestReadTNSFileRejectsCorruptGzip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bad.tns.gz")
	if err := os.WriteFile(path, []byte("not gzip at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err == nil {
		t.Fatal("expected gzip error")
	}
}
