package repro

import (
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/ckpt"
)

// wireAt is where the mid-run blobs of TestWireDigests and
// FuzzCheckpointPayload are taken: far enough in that every queue,
// buffer, fit window and oracle holds something.
const wireAt = 3000

// midRunBlob builds the case's co-simulation over seed 7, steps it to
// wireAt and encodes it under digest 1.
func midRunBlob(t testing.TB, c ckptCase) []byte {
	t.Helper()
	cs := buildCkptCosim(t, c, 7)
	for cs.Cycle() < wireAt {
		cs.Step()
	}
	blob, err := ckpt.Encode(cs, 1)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestWireDigests pins the checkpoint bytes of every co-simulation
// mode, both router engines and every memory model: the golden file
// covers one VC-router case, this table the other seventeen.
// testdata/wire-digests.txt holds one "name length sha256" line per
// case; regenerate it with -update-golden only after a deliberate,
// version-bumped format change.
func TestWireDigests(t *testing.T) {
	path := filepath.Join("testdata", "wire-digests.txt")
	var got strings.Builder
	for _, c := range checkpointCases() {
		blob := midRunBlob(t, c)
		fmt.Fprintf(&got, "%s %d %x\n", c.name, len(blob), sha256.Sum256(blob))
	}
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing wire digest table (run with -update-golden to create): %v", err)
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got.String(), "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "(no line)"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("checkpoint bytes moved\nwant %s\ngot  %s", w, line)
		}
	}
}
