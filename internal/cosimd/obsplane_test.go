package cosimd

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obsplane"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// zpRun is one sliced execution of the zero-perturbation fixture:
// the final fingerprint, the mid-run snapshot bytes, and (for observed
// runs) the plane state plus every event the subscribers received.
type zpRun struct {
	fp       string
	snap     []byte
	so       *sessionObs
	received []obsplane.Event
}

// obsplaneSlicedRun executes the fixture in 512-cycle slices exactly
// like a worker would — beginSlice / Run / afterSlice — with srv's
// observability plane attached when srv is non-nil. subs subscribers
// attach up front; mid-run one more attaches and one cancels, so the
// population churns while packets are in flight. The snapshot is taken
// at the same slice boundary in every run.
func obsplaneSlicedRun(t *testing.T, srv *Server, subs int) zpRun {
	t.Helper()
	req := tinyReq(7)
	req.MemModel = "calibrated" // exercise the retune-sink wiring
	observed := srv != nil
	if observed {
		req.Metrics = true
	}
	req.Normalize()
	cs, err := StdBuilder{}.Build(req)
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	defer cs.Close()

	var out zpRun
	if observed {
		out.so = srv.newSessionObs("zp", "tenant-zp", true)
		out.so.attach(cs)
	}
	var live []*obsplane.Subscriber
	subscribe := func() {
		if sub := out.so.hub.Subscribe(); sub != nil {
			live = append(live, sub)
		}
	}
	drainClosed := func(sub *obsplane.Subscriber) {
		for ev := range sub.Events() {
			out.received = append(out.received, ev)
		}
	}
	for i := 0; i < subs; i++ {
		subscribe()
	}

	const slice = 512
	var res core.Result
	for sliceN := 1; ; sliceN++ {
		if observed {
			out.so.beginSlice()
		}
		res = cs.Run(sim.Cycle(sliceN * slice))
		if observed {
			out.so.afterSlice(cs, slice)
			if subs > 0 {
				switch sliceN {
				case 2:
					subscribe() // attach mid-run
				case 3:
					// Detach mid-run; Cancel closes the channel, so the
					// events it buffered before leaving still count.
					live[0].Cancel()
					drainClosed(live[0])
					live = live[1:]
				}
			}
		}
		if sliceN == 4 {
			if res.Finished {
				t.Fatal("fixture finished before the mid-run snapshot point")
			}
			e := snapshot.NewEncoder(7)
			if err := cs.SnapshotTo(e); err != nil {
				t.Fatal(err)
			}
			out.snap = e.Finish()
		}
		if res.Finished || res.Stalled || uint64(cs.Cycle()) >= req.Limit {
			break
		}
	}
	if !res.Finished {
		t.Fatalf("fixture did not finish: %+v", res)
	}
	if observed {
		out.so.finish(StateDone, uint64(cs.Cycle()), "finished") // closes the hub
		for _, sub := range live {
			drainClosed(sub)
		}
	}
	out.fp = Fingerprint(cs, res)
	return out
}

// TestObsplaneZeroPerturbation is the plane's non-negotiable, one
// level up from internal/obs's: running with the full server-side
// observability plane attached — flight ring, span sink, metric
// deltas, and 0, 1, or many NDJSON subscribers attaching and
// detaching mid-run — must change neither the determinism fingerprint
// nor one byte of a mid-run snapshot.
func TestObsplaneZeroPerturbation(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1, EventsBuffer: 8192})
	plain := obsplaneSlicedRun(t, nil, 0)

	for _, tc := range []struct {
		name string
		subs int
	}{
		{"no-subscribers", 0},
		{"one-subscriber", 1},
		{"many-churning", 6},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := obsplaneSlicedRun(t, srv, tc.subs)

			// Guard the guard: the plane must actually have seen the
			// run, or identical outputs would be vacuous.
			hs := got.so.hub.Stats()
			if hs.Published == 0 || got.so.flight.Total() == 0 || got.so.ob.Metrics().Len() == 0 {
				t.Fatalf("plane recorded nothing (published=%d flight=%d metrics=%d); the comparison is vacuous",
					hs.Published, got.so.flight.Total(), got.so.ob.Metrics().Len())
			}
			if tc.subs > 0 {
				kinds := map[string]int{}
				for _, ev := range got.received {
					kinds[ev.Kind]++
				}
				for _, k := range []string{obsplane.KindProgress, obsplane.KindMetrics, obsplane.KindState} {
					if kinds[k] == 0 {
						t.Errorf("subscribers received no %q events (kinds: %v)", k, kinds)
					}
				}
			}

			if got.fp != plain.fp {
				t.Errorf("observability plane perturbed the run\nplain:    %s\nobserved: %s", plain.fp, got.fp)
			}
			if !bytes.Equal(got.snap, plain.snap) {
				t.Errorf("observability plane perturbed snapshot bytes: %d vs %d (first diff at %d)",
					len(plain.snap), len(got.snap), firstByteDiff(plain.snap, got.snap))
			}
		})
	}
}

// firstByteDiff reports the first differing byte offset, or -1.
func firstByteDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// TestObsplaneFanOutIntegration is the acceptance run for the event
// plane: 64 metrics-armed sessions across 8 tenants on an 8-worker
// pool under eviction pressure, every one with a live NDJSON
// subscriber for its whole lifetime. Each stream must open with a
// coherent sync line and carry strictly increasing sequence numbers
// (gaps are legal — that is the drop-and-count policy — going
// backwards never is), and sampled fingerprints must still match
// direct uninterrupted runs. Run under -race this doubles as the
// concurrency proof for hub publish/subscribe against 8 workers.
func TestObsplaneFanOutIntegration(t *testing.T) {
	if testing.Short() {
		t.Skip("64-session fan-out integration run")
	}
	const (
		tenants     = 8
		sessions    = 64
		workers     = 8
		maxResident = 12
		maxWarm     = 4
		slice       = 512
	)
	srv := newTestServer(t, Options{
		Workers: workers, MaxResident: maxResident, MaxWarm: maxWarm, SliceCycles: slice,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	reqs := make([]SubmitRequest, 0, sessions)
	ids := make([]string, 0, sessions)
	for i := 0; i < sessions; i++ {
		req := tinyReq(uint64(1000 + i))
		req.Tenant = fmt.Sprintf("tenant-%d", i%tenants)
		req.Metrics = true
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		reqs = append(reqs, req)
		ids = append(ids, st.ID)
	}

	type streamResult struct {
		events int
		err    error
	}
	results := make([]streamResult, sessions)
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/v1/sessions/" + id + "/events")
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				results[i].err = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			sc := bufio.NewScanner(resp.Body)
			sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
			last, first := uint64(0), true
			for sc.Scan() {
				var ev obsplane.Event
				if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
					results[i].err = fmt.Errorf("bad NDJSON line %q: %v", sc.Text(), err)
					return
				}
				if first {
					if ev.Kind != obsplane.KindSync {
						results[i].err = fmt.Errorf("stream opened with %q, want sync", ev.Kind)
						return
					}
					last, first = ev.Seq, false
					continue
				}
				if ev.Seq <= last {
					results[i].err = fmt.Errorf("sequence went backwards: %d after %d", ev.Seq, last)
					return
				}
				last = ev.Seq
				results[i].events++
			}
			results[i].err = sc.Err()
		}(i, id)
	}
	srv.Wait()
	wg.Wait() // every stream ends when its session's hub closes

	total := 0
	for i, r := range results {
		if r.err != nil {
			t.Errorf("stream %s: %v", ids[i], r.err)
		}
		total += r.events
	}
	if total == 0 {
		t.Fatal("no stream received any events — the fan-out proved nothing")
	}

	stats := srv.Stats()
	if got := stats.ByState[StateDone]; got != sessions {
		t.Fatalf("%d/%d sessions done; states: %v", got, sessions, stats.ByState)
	}
	if stats.Evictions == 0 {
		t.Fatal("no eviction pressure — streams never crossed an evict/fault-in boundary")
	}
	if stats.Obs.Published == 0 {
		t.Fatal("server accounted zero published events")
	}
	t.Logf("fan-out: %d events across %d streams (%d published, %d dropped), %d evictions",
		total, sessions, stats.Obs.Published, stats.Obs.Dropped, stats.Evictions)

	// Sampled fingerprints: streaming subscribers on every session must
	// not have perturbed outcomes.
	for i := 0; i < sessions; i += 16 {
		_, env := envelope(t, srv, ids[i])
		if want := directFingerprint(t, reqs[i]); env.Fingerprint != want {
			t.Errorf("session %s fingerprint diverged under fan-out\n got %s\nwant %s",
				ids[i], env.Fingerprint, want)
		}
	}
}

// TestEventsStreamChurn exercises subscriber churn against one live
// server: connect mid-run, slam the connection mid-stream, reconnect
// while eviction pressure shuffles sessions between memory and the
// warm tier, and verify the reconnect opens with a coherent sync line
// and runs to the terminal state event. The whole dance must leak no
// goroutines.
func TestEventsStreamChurn(t *testing.T) {
	// A deep subscriber queue: this test asserts the terminal state
	// event arrives, which is only guaranteed lossless when the queue
	// never overflows (drop-and-count under pressure is unit-tested in
	// internal/obsplane instead).
	srv := newTestServer(t, Options{Workers: 2, MaxResident: 3, SliceCycles: 256, EventsBuffer: 1 << 14})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}

	before := runtime.NumGoroutine()

	const n = 6
	ids := make([]string, n)
	for i := range ids {
		req := tinyReq(uint64(500 + i))
		req.Ops = 400 // longer runs: the churn below lands mid-run
		req.Metrics = true
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids[i] = st.ID
	}

	// Connect mid-run, read only the sync line, then disconnect
	// mid-stream: the handler must notice and unsubscribe.
	resp, err := client.Get(ts.URL + "/api/v1/sessions/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	line, err := bufio.NewReader(resp.Body).ReadBytes('\n')
	if err != nil {
		t.Fatalf("reading sync line: %v", err)
	}
	var sync0 obsplane.Event
	if err := json.Unmarshal(line, &sync0); err != nil {
		t.Fatalf("bad sync line %q: %v", line, err)
	}
	if sync0.Kind != obsplane.KindSync || sync0.Session != ids[0] {
		t.Fatalf("incoherent sync line: %+v", sync0)
	}
	resp.Body.Close() // mid-stream disconnect

	// Reconnect: the new stream must resync (its sync sequence cannot
	// be before the one the dropped connection saw) and run to the
	// session's terminal state event.
	resp, err = client.Get(ts.URL + "/api/v1/sessions/" + ids[0] + "/events")
	if err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	var events []obsplane.Event
	for sc.Scan() {
		var ev obsplane.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	resp.Body.Close()
	if len(events) == 0 || events[0].Kind != obsplane.KindSync {
		t.Fatalf("reconnect did not open with a sync line: %+v", events)
	}
	if events[0].Seq < sync0.Seq {
		t.Errorf("reconnect sync went backwards: %d before %d", events[0].Seq, sync0.Seq)
	}
	// A stream must end coherently either way the race falls: caught
	// mid-run, it runs to the terminal state event; the session already
	// done, the sync line itself reports the terminal state and the hub
	// is closed.
	last := events[len(events)-1]
	terminal := last.State == string(StateDone) || last.State == string(StateFailed)
	if len(events) > 1 && (last.Kind != obsplane.KindState || !terminal) {
		t.Errorf("stream did not end on a terminal state event: %+v", last)
	}
	if len(events) == 1 && !terminal {
		t.Errorf("empty stream without a terminal sync state: %+v", last)
	}

	srv.Wait()
	if stats := srv.Stats(); stats.Evictions == 0 {
		t.Error("no evictions while streams were live — the churn proved nothing")
	}
	for _, id := range ids {
		st, _ := srv.Status(id)
		if st.State != StateDone {
			t.Fatalf("session %s: %+v", id, st)
		}
	}

	// Goroutine bracket: once streams and sessions are done, we must be
	// back to (about) where we started — no handler, watcher, or
	// subscriber goroutine may outlive its connection.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if g := runtime.NumGoroutine(); g <= before+3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before churn, %d after", before, g)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// gateBuilder blocks every Build until the gate opens — it pins
// sessions in "no slice has completed yet" so handler status codes can
// be asserted without racing the workers. next builds once the gate is
// open (nil: StdBuilder).
type gateBuilder struct {
	gate chan struct{}
	next Builder
}

func (g gateBuilder) Digest(req SubmitRequest) (uint64, error) { return StdBuilder{}.Digest(req) }
func (g gateBuilder) Build(req SubmitRequest) (*core.Cosim, error) {
	<-g.gate
	if g.next != nil {
		return g.next.Build(req)
	}
	return StdBuilder{}.Build(req)
}

// TestMetricsHandlerStatusCodes pins the three failure shapes of
// GET /sessions/{id}/metrics apart: unknown session is 404; a session
// submitted without metrics is 409 however long it runs; a
// metrics-armed session is 409 only until its first slice completes.
// (A regression test: the handler used to fold all three into one.)
func TestMetricsHandlerStatusCodes(t *testing.T) {
	gate := make(chan struct{})
	srv := newTestServer(t, Options{Workers: 1, Builder: gateBuilder{gate: gate}})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	plain, err := srv.Submit(tinyReq(21))
	if err != nil {
		t.Fatal(err)
	}
	armedReq := tinyReq(22)
	armedReq.Metrics = true
	armed, err := srv.Submit(armedReq)
	if err != nil {
		t.Fatal(err)
	}

	get := func(id string) (int, string) {
		resp, err := http.Get(ts.URL + "/api/v1/sessions/" + id + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		return resp.StatusCode, buf.String()
	}

	if code, body := get("nope"); code != http.StatusNotFound {
		t.Errorf("unknown session: got %d (%s), want 404", code, body)
	}
	if code, body := get(plain.ID); code != http.StatusConflict || !strings.Contains(body, "metrics") {
		t.Errorf("unarmed session: got %d (%s), want 409 explaining the missing metrics knob", code, body)
	}
	if code, body := get(armed.ID); code != http.StatusConflict || !strings.Contains(body, "no slice") {
		t.Errorf("armed-but-unstarted session: got %d (%s), want 409 explaining no slice completed", code, body)
	}

	close(gate)
	srv.Wait()
	if code, body := get(armed.ID); code != http.StatusOK || !strings.Contains(body, "\"kind\"") {
		t.Errorf("armed finished session: got %d (%s), want 200 with a registry snapshot", code, body)
	}
	if code, _ := get(plain.ID); code != http.StatusConflict {
		t.Errorf("unarmed finished session: got %d, want 409 still", code)
	}
}

// noFlushWriter hides the wrapped writer's http.Flusher — the shape of
// a buffering middleware that broke streaming silently before
// streamPrep learned to tag the response.
type noFlushWriter struct{ http.ResponseWriter }

// TestEventsWithoutFlusher: when the ResponseWriter cannot flush, the
// events stream must still deliver every line (at the wrapper's
// buffering mercy) and must say so up front via a Warning header
// rather than degrade silently.
func TestEventsWithoutFlusher(t *testing.T) {
	srv := newTestServer(t, Options{Workers: 1})
	st, err := srv.Submit(tinyReq(31))
	if err != nil {
		t.Fatal(err)
	}
	srv.Wait()

	rec := httptest.NewRecorder()
	req := httptest.NewRequest("GET", "/api/v1/sessions/"+st.ID+"/events", nil)
	srv.Handler().ServeHTTP(noFlushWriter{rec}, req)

	if w := rec.Header().Get("Warning"); !strings.Contains(w, "does not support flushing") {
		t.Errorf("no-flusher stream carried no Warning header (got %q)", w)
	}
	// The session is done, so the stream is its sync line alone.
	var final obsplane.Event
	lines := strings.Split(strings.TrimSpace(rec.Body.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &final); err != nil {
		t.Fatalf("bad stream body %q: %v", rec.Body.String(), err)
	}
	if final.Kind != obsplane.KindSync || final.State != string(StateDone) {
		t.Errorf("stream did not report the final state: %+v", final)
	}

	// The plain path must not carry the warning (the recorder flushes).
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/api/v1/sessions/"+st.ID+"/events", nil))
	if w := rec.Header().Get("Warning"); w != "" {
		t.Errorf("flushing stream unexpectedly tagged with Warning %q", w)
	}
}

var promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})? (\S+)$`)

// checkExposition validates Prometheus text exposition shape: every
// sample line parses, carries a float value, and belongs to a family
// declared by a preceding # TYPE (histogram series resolve to their
// base family). Returns the set of sampled family names.
func checkExposition(t *testing.T, text string) map[string]bool {
	t.Helper()
	types := map[string]string{}
	sampled := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			f := strings.Fields(line)
			if len(f) < 4 || (f[1] != "HELP" && f[1] != "TYPE") {
				t.Errorf("malformed comment line %q", line)
			} else if f[1] == "TYPE" {
				types[f[2]] = f[3]
			}
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("unparsable sample line %q", line)
			continue
		}
		name := m[1]
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if b, ok := strings.CutSuffix(name, suf); ok && types[b] == "histogram" {
				base = b
			}
		}
		if _, ok := types[base]; !ok {
			t.Errorf("sample %q has no TYPE declaration", name)
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			t.Errorf("sample %q has non-numeric value %q", name, m[3])
		}
		sampled[base] = true
	}
	return sampled
}

// TestPromEndpoint drives the pool through evictions, warm restores,
// spills, and a cache hit, then asserts GET /metrics is valid
// Prometheus text exposition whose families reflect all of it:
// scheduler skew, eviction tiers, cache hit rate, per-tenant cycle
// accounting, and per-phase wall histograms.
func TestPromEndpoint(t *testing.T) {
	srv, release := newGatedServer(t, Options{
		Workers: 2, MaxResident: 3, MaxWarm: 2, SliceCycles: 512,
	})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	const n = 8
	var first SubmitRequest
	for i := 0; i < n; i++ {
		req := tinyReq(uint64(700 + i))
		req.Tenant = fmt.Sprintf("tenant-%d", i%2)
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
	stats := srv.Stats()
	if stats.Evictions == 0 || stats.Spills == 0 || stats.CacheHits == 0 {
		t.Fatalf("fixture exercised too little (evictions=%d spills=%d hits=%d)",
			stats.Evictions, stats.Spills, stats.CacheHits)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != promContentType {
		t.Errorf("content type %q, want %q", ct, promContentType)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	text := buf.String()

	sampled := checkExposition(t, text)
	for _, family := range []string{
		"cosimd_workers",
		"cosimd_slices_total",
		"cosimd_sessions",
		"cosimd_sched_ready_depth",
		"cosimd_sched_fairness_spread_cycles",
		"cosimd_evictions_total",
		"cosimd_restores_total",
		"cosimd_warm_restores_total",
		"cosimd_spills_total",
		"cosimd_cache_hits_total",
		"cosimd_cache_misses_total",
		"cosimd_tenant_simulated_cycles_total",
		"cosimd_tenant_sessions",
		"cosimd_events_published_total",
		"cosimd_events_dropped_total",
		"cosimd_flight_records_total",
		"cosimd_phase_wall_seconds",
	} {
		if !sampled[family] {
			t.Errorf("family %s missing from the exposition", family)
		}
	}
	// Spot-check label shapes: tenants and phases reached the page.
	if !strings.Contains(text, `cosimd_tenant_simulated_cycles_total{tenant="tenant-0"}`) {
		t.Error("per-tenant cycle accounting missing tenant-0")
	}
	if !strings.Contains(text, `cosimd_phase_wall_seconds_bucket{phase="slice",le="+Inf"}`) {
		t.Error("slice phase histogram missing its +Inf bucket")
	}
}

// failBuilder digests like the real builder but refuses to build —
// the injected fault behind the error-postmortem test.
type failBuilder struct{}

func (failBuilder) Digest(req SubmitRequest) (uint64, error) { return StdBuilder{}.Digest(req) }
func (failBuilder) Build(req SubmitRequest) (*core.Cosim, error) {
	return nil, fmt.Errorf("injected build failure")
}

// TestFlightRecorder covers the flight ring end to end: the /flight
// endpoint for a healthy session, the automatic postmortem dump when a
// session fails, the drain dump at server close, and the 409s when
// recording or streaming are disabled.
func TestFlightRecorder(t *testing.T) {
	t.Run("endpoint", func(t *testing.T) {
		// Deep enough that the whole history — submit included — is
		// still in the ring at the end.
		srv := newTestServer(t, Options{Workers: 1, FlightDepth: 4096})
		st, err := srv.Submit(tinyReq(41))
		if err != nil {
			t.Fatal(err)
		}
		srv.Wait()
		reply, armed, ok := srv.Flight(st.ID)
		if !ok || !armed {
			t.Fatalf("Flight(%s): armed=%v ok=%v", st.ID, armed, ok)
		}
		if reply.Session != st.ID || reply.State != StateDone || reply.Total == 0 {
			t.Fatalf("flight reply incoherent: %+v", reply)
		}
		kinds := map[string]bool{}
		for _, e := range reply.Entries {
			kinds[e.Kind] = true
		}
		for _, k := range []string{obsplane.FlightSubmit, obsplane.FlightQuantum, obsplane.FlightSlice, obsplane.FlightDone} {
			if !kinds[k] {
				t.Errorf("flight ring missing %q entries (kinds: %v)", k, kinds)
			}
		}

		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		resp, err := http.Get(ts.URL + "/api/v1/sessions/" + st.ID + "/flight")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var viaHTTP FlightReply
		if err := json.NewDecoder(resp.Body).Decode(&viaHTTP); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET /flight: status %d, decode err %v", resp.StatusCode, err)
		}
		if viaHTTP.Total != reply.Total || len(viaHTTP.Entries) != len(reply.Entries) {
			t.Errorf("HTTP flight dump diverges: %d/%d entries vs %d/%d",
				viaHTTP.Total, len(viaHTTP.Entries), reply.Total, len(reply.Entries))
		}
	})

	t.Run("error-dump", func(t *testing.T) {
		srv := newTestServer(t, Options{Workers: 1, Builder: failBuilder{}})
		st, err := srv.Submit(tinyReq(42))
		if err != nil {
			t.Fatal(err)
		}
		srv.Wait()
		if got, _ := srv.Status(st.ID); got.State != StateFailed {
			t.Fatalf("session did not fail: %+v", got)
		}
		blob, err := os.ReadFile(filepath.Join(srv.StateDir(), st.ID+".flight.json"))
		if err != nil {
			t.Fatalf("no postmortem flight dump: %v", err)
		}
		var dump obsplane.FlightDump
		if err := json.Unmarshal(blob, &dump); err != nil {
			t.Fatalf("bad flight dump: %v", err)
		}
		failed := false
		for _, e := range dump.Entries {
			failed = failed || e.Kind == obsplane.FlightFailed
		}
		if !failed {
			t.Errorf("postmortem dump has no %q entry: %+v", obsplane.FlightFailed, dump.Entries)
		}
	})

	t.Run("drain-dump", func(t *testing.T) {
		dir := t.TempDir()
		srv, err := NewServer(Options{Workers: 1, StateDir: dir, SliceCycles: 256})
		if err != nil {
			t.Fatal(err)
		}
		req := tinyReq(43)
		req.Ops = 20_000 // long enough to still be live at drain
		st, err := srv.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := os.Stat(filepath.Join(dir, st.ID+".flight.json")); err != nil {
			t.Errorf("drain left no flight dump: %v", err)
		}
	})

	t.Run("disabled", func(t *testing.T) {
		srv := newTestServer(t, Options{Workers: 1, FlightDepth: -1, EventsBuffer: -1})
		st, err := srv.Submit(tinyReq(44))
		if err != nil {
			t.Fatal(err)
		}
		srv.Wait()
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		for _, ep := range []string{"flight", "events"} {
			resp, err := http.Get(ts.URL + "/api/v1/sessions/" + st.ID + "/" + ep)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusConflict {
				t.Errorf("disabled /%s: status %d, want 409", ep, resp.StatusCode)
			}
			resp, err = http.Get(ts.URL + "/api/v1/sessions/nope/" + ep)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotFound {
				t.Errorf("unknown session /%s: status %d, want 404", ep, resp.StatusCode)
			}
		}
	})
}
