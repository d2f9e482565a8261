package cosimd

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateEvents = flag.Bool("update-events", false,
	"rewrite testdata/obsplane-events.ndjson from the current run")

// TestObsplaneEventsPinned pins the NDJSON a subscriber receives over
// the zero-perturbation fixture, every event in order with its seq:
// spans, retunes, metric deltas, progress samples and the final state.
// The stream is built from the session observer's records, so any
// change in how those records reach the plane shows here as moved
// bytes. Regenerate after a deliberate change with:
//
//	go test ./internal/cosimd -run TestObsplaneEventsPinned -update-events
func TestObsplaneEventsPinned(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1, EventsBuffer: 8192})
	run := obsplaneSlicedRun(t, srv, 1)
	if hs := run.so.hub.Stats(); hs.Dropped != 0 {
		t.Fatalf("the hub dropped %d events; the pin would be short", hs.Dropped)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, ev := range run.received {
		if err := enc.Encode(ev); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join("testdata", "obsplane-events.ndjson")
	if *updateEvents {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (regenerate with -update-events): %v", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("subscriber stream diverged from %s at byte %d (got %d bytes, want %d)",
			path, firstByteDiff(buf.Bytes(), want), buf.Len(), len(want))
	}
}
