package cosimd

import (
	"bytes"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
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

// scrape fetches the /metrics page of the server at url.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestWaitSettlesTelemetry: Wait returns only after the worker has
// folded its last slice into the telemetry, so a scrape right after it
// reads no busy worker and one slice observation per slice the
// sessions ran — ceil(cycle / slice) each, the server never evicting.
func TestWaitSettlesTelemetry(t *testing.T) {
	const slice = 512
	srv := newTestServer(t, Options{Workers: 1, SliceCycles: slice})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for i := 0; i < 3; i++ {
		if _, err := srv.Submit(tinyReq(uint64(900 + i))); err != nil {
			t.Fatal(err)
		}
	}
	srv.Wait()
	page := scrape(t, ts.URL)
	want := uint64(0)
	for _, st := range srv.Sessions() {
		want += (st.Cycle + slice - 1) / slice
	}
	if got := promSample(page, "cosimd_workers_busy"); got != "0" {
		t.Errorf("cosimd_workers_busy %s after Wait, want 0", got)
	}
	for _, series := range []string{"cosimd_slices_total", `cosimd_phase_wall_seconds_count{phase="slice"}`} {
		if got := promSample(page, series); got != fmt.Sprint(want) {
			t.Errorf("%s %s after Wait, want %d", series, got, want)
		}
	}
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

	// Wait returns with the last slice folded into the telemetry, so
	// one scrape reads the quiescent page.
	got := []byte(maskWall(scrape(t, ts.URL)))

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
