package ckpt

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// buildCosim wires a small detailed-mesh co-simulation directly from
// the internal packages (ckpt cannot use the public facade — the root
// package imports ckpt).
func buildCosim(t *testing.T, seed uint64) *core.Cosim {
	t.Helper()
	m := topology.NewMesh(4, 4, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		t.Fatal(err)
	}
	wl := workload.NewFFT(16, 250, seed)
	cs, err := core.Build(fullsys.DefaultConfig(16), wl, net, 8)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	return cs
}

// fingerprint summarizes a finished run bit-exactly (mirrors
// internal/core's determinism fingerprint).
func fingerprint(t *testing.T, cs *core.Cosim, res core.Result) string {
	t.Helper()
	if !res.Finished {
		t.Fatalf("workload did not finish: %+v", res)
	}
	hits, misses := cs.Sys.L1Stats()
	return fmt.Sprintf("exec=%d retired=%d pkts=%d lat=%x skew=%x l1=%d/%d",
		res.ExecCycles, res.Retired, res.Packets, res.AvgLatency, res.AvgSkew, hits, misses)
}

const testDigest = uint64(0xc05e5e551045)

// TestSaveLoadRoundTrip checks the file mechanism end to end:
// save-at-T, load into a fresh co-simulation, run to completion, and
// compare against an uninterrupted run.
func TestSaveLoadRoundTrip(t *testing.T) {
	ref := buildCosim(t, 42)
	want := fingerprint(t, ref, ref.Run(2_000_000))

	saved := buildCosim(t, 42)
	if res := saved.Run(1024); res.Finished {
		t.Fatalf("finished before the save point: %+v", res)
	}
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := Save(path, saved, testDigest); err != nil {
		t.Fatal(err)
	}

	resumed := buildCosim(t, 42)
	if err := Load(path, resumed, testDigest); err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, resumed, resumed.Run(2_000_000)); got != want {
		t.Errorf("resumed fingerprint diverged:\n got %s\nwant %s", got, want)
	}
}

// TestLoadRejectsWrongDigest pins the config-mismatch guard at this
// layer: a checkpoint saved under one digest must not restore under
// another.
func TestLoadRejectsWrongDigest(t *testing.T) {
	cs := buildCosim(t, 42)
	cs.Run(512)
	path := filepath.Join(t.TempDir(), "ckpt.bin")
	if err := Save(path, cs, testDigest); err != nil {
		t.Fatal(err)
	}
	other := buildCosim(t, 42)
	err := Load(path, other, testDigest+1)
	if err == nil {
		t.Fatal("Load accepted a checkpoint with a mismatched digest")
	}
	if !errors.Is(err, snapshot.ErrConfigMismatch) {
		t.Errorf("want a config-mismatch error, got %v", err)
	}
}

// TestRunResumable runs in small chunks with periodic saves, then
// replays the final checkpoint and compares fingerprints.
func TestRunResumable(t *testing.T) {
	ref := buildCosim(t, 7)
	want := fingerprint(t, ref, ref.Run(2_000_000))

	path := filepath.Join(t.TempDir(), "resume.bin")
	chunked := buildCosim(t, 7)
	res, err := RunResumable(chunked, 2_000_000, path, 512, testDigest)
	if err != nil {
		t.Fatal(err)
	}
	if got := fingerprint(t, chunked, res); got != want {
		t.Errorf("chunked fingerprint diverged:\n got %s\nwant %s", got, want)
	}
	// The periodic checkpoint file must exist and load cleanly.
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("periodic checkpoint missing: %v", err)
	}
	resumed := buildCosim(t, 7)
	if err := Load(path, resumed, testDigest); err != nil {
		t.Fatal(err)
	}
}

// TestWriteFileAtomic checks that WriteFile replaces an existing file
// and leaves no temp litter behind.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.bin")
	if err := WriteFile(path, []byte("one")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFile(path, []byte("two")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "two" {
		t.Errorf("WriteFile did not replace: %q", got)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp litter left behind: %v", entries)
	}
}

// TestWriteFileRenameFailureLeavesNoTemp: when the final rename fails
// (a directory sits where the file should go), WriteFile reports the
// error and removes its temp file, so a retried save does not leave
// one checkpoint-sized file behind per attempt.
func TestWriteFileRenameFailureLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.ckpt")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := WriteFile(path, []byte("blob")); err == nil {
			t.Fatal("WriteFile over a directory succeeded")
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp files left behind after failed renames: %v", entries)
	}
}
