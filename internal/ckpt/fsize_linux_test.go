package ckpt

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
)

// fsizeChild marks the child process a file-size test re-runs itself
// in. The limit is the process's, and under the go command the test
// binary also writes a test log that must not fall under it.
const fsizeChild = "REPRO_FSIZE_CHILD"

// inFsizeChild reports whether the calling test is the child; if not,
// it re-runs test name alone in a child process and reports its
// verdict.
func inFsizeChild(t *testing.T, name string) bool {
	t.Helper()
	if os.Getenv(fsizeChild) != "" {
		return true
	}
	cmd := exec.Command(os.Args[0], "-test.run=^"+name+"$", "-test.count=1", "-test.v")
	cmd.Env = append(os.Environ(), fsizeChild+"=1")
	out, err := cmd.CombinedOutput()
	switch {
	case err != nil:
		t.Fatalf("%s in a child process: %v\n%s", name, err, out)
	case bytes.Contains(out, []byte("--- SKIP")):
		t.Skipf("%s skipped in its child process:\n%s", name, out)
	}
	return false
}

// TestWriteFileWriteFailureLeavesNoTemp: when the write itself fails
// partway — the process's file-size limit lowered below the blob, so
// the write returns EFBIG as a write to a full disk fails — WriteFile
// reports the error, removes its temp file and leaves the existing
// file untouched. The limit is the process's, so the test runs alone
// in a child process.
func TestWriteFileWriteFailureLeavesNoTemp(t *testing.T) {
	if !inFsizeChild(t, "TestWriteFileWriteFailureLeavesNoTemp") {
		return
	}
	const limit = 4 << 10
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	if old.Cur < limit {
		t.Skipf("file-size limit is already %d bytes", old.Cur)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "blob.ckpt")
	if err := WriteFile(path, []byte("old")); err != nil {
		t.Fatal(err)
	}
	lowered := syscall.Rlimit{Cur: limit, Max: old.Max}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	t.Cleanup(func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Errorf("restoring the file-size limit: %v", err)
		}
	})
	err := WriteFile(path, bytes.Repeat([]byte{0xa5}, 3*limit))
	if !errors.Is(err, syscall.EFBIG) {
		t.Fatalf("WriteFile past the file-size limit: %v, want EFBIG", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("temp file left behind after a failed write: %v", entries)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "old" {
		t.Errorf("the existing file reads %q, %v after a failed write; want it untouched", got, err)
	}
}
