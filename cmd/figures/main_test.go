package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestUnknownFigureKeepsProfile: an unknown id is refused with status 2
// before any output file is made, and the CPU profile started before the
// check is still written out.
func TestUnknownFigureKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	prof, out := filepath.Join(dir, "cpu.prof"), filepath.Join(dir, "out")
	if got := run([]string{"-fig", "nope", "-cpuprofile", prof, "-out", out}); got != 2 {
		t.Fatalf("run = %d, want 2", got)
	}
	if st, err := os.Stat(prof); err != nil || st.Size() == 0 {
		t.Errorf("cpu profile %v, %v: want a non-empty file", st, err)
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Errorf("-out directory made for an unknown figure: %v", err)
	}
}
