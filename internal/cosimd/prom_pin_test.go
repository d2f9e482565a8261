package cosimd

import (
	"bytes"
	"flag"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateProm = flag.Bool("update-prom", false,
	"rewrite testdata/metrics-page.prom from the current run")

// promWallSeries are the /metrics series whose values are wall time;
// the pin masks their values and keeps everything else.
var promWallSeries = []string{
	"cosimd_worker_busy_seconds_total",
	"cosimd_phase_wall_seconds_bucket",
	"cosimd_phase_wall_seconds_sum",
}

// maskWall replaces the value of every wall-time sample with "X".
func maskWall(page string) string {
	lines := strings.SplitAfter(page, "\n")
	for i, line := range lines {
		for _, name := range promWallSeries {
			if strings.HasPrefix(line, name+" ") || strings.HasPrefix(line, name+"{") {
				lines[i] = line[:strings.LastIndexByte(line, ' ')+1] + "X\n"
			}
		}
	}
	return strings.Join(lines, "")
}

// promSample returns the value of one series on an exposition page,
// or "" when the page has no such sample.
func promSample(page, series string) string {
	for _, line := range strings.Split(page, "\n") {
		if v, ok := strings.CutPrefix(line, series+" "); ok {
			return v
		}
	}
	return ""
}

// TestPromPagePinned pins the whole GET /metrics page of a one-worker
// server pushed through warm parks, spills, disk fault-ins and a cache
// hit, with its wall-time values masked: every family, HELP line,
// label set, bucket bound and count. The tenants include a quote, a
// backslash and a newline, so label escaping is pinned too. Regenerate
// after a deliberate change with:
//
//	go test ./internal/cosimd -run TestPromPagePinned -update-prom
func TestPromPagePinned(t *testing.T) {
	srv, release := newGatedServer(t, Options{
		Workers: 1, MaxResident: 2, MaxWarm: 1, SliceCycles: 512,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	tenants := []string{"a", `t"q\x`, "nl\nx"}
	var first SubmitRequest
	for i := 0; i < 6; i++ {
		req := tinyReq(uint64(800 + i))
		req.Tenant = tenants[i%len(tenants)]
		req.Metrics = i%2 == 0
		if i == 0 {
			first = req
		}
		if _, err := srv.Submit(req); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	release()
	srv.Wait()
	if _, err := srv.Submit(first); err != nil { // cache hit
		t.Fatal(err)
	}

	// Wait returns once every session is final, a moment before the
	// worker folds its last slice into the telemetry: scrape until it
	// has, so the pinned page is the quiescent one.
	var page string
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		page = buf.String()
		if promSample(page, "cosimd_workers_busy") == "0" &&
			promSample(page, "cosimd_slices_total") == promSample(page, `cosimd_phase_wall_seconds_count{phase="slice"}`) ||
			time.Now().After(deadline) {
			break
		}
	}
	got := []byte(maskWall(page))

	path := filepath.Join("testdata", "metrics-page.prom")
	if *updateProm {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing pin (regenerate with -update-prom): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("/metrics diverged from %s at byte %d:\n%s", path, firstByteDiff(got, want), got)
	}
}
