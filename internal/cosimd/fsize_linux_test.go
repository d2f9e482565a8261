package cosimd

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
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

// lockedLog is a server log shared by the workers.
type lockedLog struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *lockedLog) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *lockedLog) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// TestSpillOnFullDisk: with the process's file-size limit lowered
// below a checkpoint's size, every spill's write fails partway with
// EFBIG (Go ignores SIGXFSZ), as a write to a full disk fails. As with
// a spill that cannot be written at all, each failed spill keeps its
// session parked, every session finishes with its direct-run
// fingerprint, no spill is counted, no temp file is left, and the
// server's goroutines are gone after Close. The limit is the
// process's, so the test runs alone in a child process.
func TestSpillOnFullDisk(t *testing.T) {
	if !inFsizeChild(t, "TestSpillOnFullDisk") {
		return
	}
	const limit = 1 << 10 // a tiny session's checkpoint is several times this
	var old syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
		t.Skipf("getrlimit: %v", err)
	}
	if old.Cur < limit {
		t.Skipf("file-size limit is already %d bytes", old.Cur)
	}
	restore := func() {
		if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &old); err != nil {
			t.Errorf("restoring the file-size limit: %v", err)
		}
	}
	t.Cleanup(restore)

	base := runtime.NumGoroutine()
	dir := t.TempDir()
	gate := make(chan struct{})
	log := &lockedLog{}
	srv, err := NewServer(Options{
		Workers: 1, MaxResident: 2, MaxWarm: 1, SliceCycles: 512, StateDir: dir,
		Builder: gateBuilder{gate: gate}, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	reqs := map[string]SubmitRequest{}
	for i := 0; i < 6; i++ {
		req := tinyReq(uint64(970 + i))
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs[st.ID] = req
	}
	lowered := syscall.Rlimit{Cur: limit, Max: old.Max}
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lowered); err != nil {
		t.Skipf("setrlimit: %v", err)
	}
	close(gate)
	srv.Wait()
	restore() // before Close, which writes the manifest

	if !strings.Contains(log.String(), "file too large") {
		t.Fatalf("no spill failed with EFBIG; server log:\n%s", log.String())
	}
	for id, req := range reqs {
		_, env := envelope(t, srv, id)
		if want := directFingerprint(t, req); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged\n got %s\nwant %s", id, env.Fingerprint, want)
		}
	}
	st := srv.Stats()
	if st.Spills != 0 || st.Evictions == 0 {
		t.Errorf("spills=%d evictions=%d, want no spill among some evictions", st.Spills, st.Evictions)
	}
	tmps, err := filepath.Glob(filepath.Join(dir, "*.tmp*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(tmps) != 0 {
		t.Errorf("%d temp files left behind by failed spills, e.g. %s", len(tmps), tmps[0])
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	got := runtime.NumGoroutine()
	for i := 0; i < 500 && got > base; i++ {
		time.Sleep(time.Millisecond)
		got = runtime.NumGoroutine()
	}
	if got > base {
		t.Errorf("%d goroutines leaked", got-base)
	}
}
