package main

import (
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestSaveTraceRecordsTheModesRun: -savetrace records the first mode
// as that mode runs, at its own quantum. A synchronous run prints the
// same row with and without it: detailed/q1 and 12583 execution
// cycles for 16-tile fft at 100 ops/core, not the q64 run's 25216.
func TestSaveTraceRecordsTheModesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs cmd/cosim twice")
	}
	bin := filepath.Join(t.TempDir(), "cosim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := []string{"-tiles", "16", "-workload", "fft", "-ops", "100", "-mode", "synchronous"}
	for _, extra := range [][]string{nil, {"-savetrace", filepath.Join(t.TempDir(), "trace.jsonl")}} {
		out, err := exec.Command(bin, append(args, extra...)...).CombinedOutput()
		if err != nil {
			t.Fatalf("cosim %v: %v\n%s", extra, err, out)
		}
		var row []string
		for _, line := range strings.Split(string(out), "\n") {
			if f := strings.Fields(line); len(f) > 2 && strings.HasPrefix(f[0], "detailed/") {
				row = f
			}
		}
		if len(row) < 3 || row[0] != "detailed/q1" || row[2] != "12583" {
			t.Errorf("cosim %v: mode row %q, want detailed/q1 with 12583 exec cycles\n%s", extra, row, out)
		}
	}
}
