package expt

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateA6 = flag.Bool("update-a6", false, "rewrite testdata/a6-tiny.txt from the current run")

// TestA6TablesPinned pins A6's two tables — the per-pairing summary
// and the network model's drift by run quarter — as rendered text at
// the CI scale. They read the retune stream two ways (a running
// summary and a per-refit drift series), so a change to how retunes
// reach their readers that moves either shows here. Regenerate after a
// deliberate change with:
//
//	go test ./internal/expt -run TestA6TablesPinned -update-a6
func TestA6TablesPinned(t *testing.T) {
	var b strings.Builder
	for _, tb := range FigureA6(tinyScale()) {
		b.WriteString(tb.String())
		b.WriteString("\n")
	}
	got := b.String()
	path := filepath.Join("testdata", "a6-tiny.txt")
	if *updateA6 {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (regenerate with -update-a6): %v", err)
	}
	if got != string(want) {
		t.Fatalf("A6 tables diverged from %s\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
