//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro"
	"repro/internal/cosimd"
)

// The server workload's fixed shape: the resident pool is kept far
// smaller than the outstanding population, so nearly every slice pays a
// warm park and a warm fault-in. The warm tier holds every parked
// session: with a smaller one the run spills checkpoints to disk, and on
// the recording host file creation and rename stall so unevenly that
// sessions/s ranged from 4.8 to 11.5 between runs (12.2 to 13.3 without
// spills). The disk tier is priced per layer by capture.save_load_ms;
// cosimd.spills and the disk phases read 0 unless the pool changes.
//
// One worker: with two, the workers, the clients and the HTTP handlers
// are more runnable threads than a two-CPU host has, and the numbers
// then follow the host's scheduler (the driver's check saw the middle
// half of ten runs spread by 27 %). With one, the second CPU takes the
// clients, the handlers and the collector, as in every other workload.
var (
	serveOptions = cosimd.Options{Workers: 1, SliceCycles: 1024, MaxResident: 4, MaxWarm: 16}
	serveKernels = []string{"fft", "radix", "ocean", "lu"}
	serveTenants = []string{"t0", "t1", "t2", "t3"}
)

// serveStride spreads the op budgets of a batch over its slots; it must
// share no factor with the batch size.
const serveStride = 7

// serveClients is the closed loop's client count: one goroutine and one
// keep-alive connection each, never more than the host has CPUs.
func serveClients() int { return min(runtime.NumCPU(), 2) }

// served is one session as its client saw it.
type served struct {
	req                     cosimd.SubmitRequest
	id                      string
	sent, inHand            time.Time
	envelope                []byte
	problems                []string
	submitRTT, wait, fetchT time.Duration
}

// serveRequest derives session idx from the run's seed: distinct seeds,
// so the result cache never answers for the simulator. Op budgets spread
// evenly over 0.5x to 1.5x the nominal one, because equal sessions under
// a fair-share scheduler all finish in the same instant and the load then
// moves in waves of sixteen; the spread is a fixed pattern over a batch's
// slots, so every batch of every run is the same mix of kernels, tenants
// and lengths and only the simulated programs differ.
func (h *harness) serveRequest(idx int, metrics bool) cosimd.SubmitRequest {
	seed := h.seed*1_000_003 + uint64(idx) + 1
	slot := idx % h.sz.serveBatch
	ops := h.sz.serveOps/2 + h.sz.serveOps*(slot*serveStride%h.sz.serveBatch)/h.sz.serveBatch
	return cosimd.SubmitRequest{
		Tenant:   serveTenants[(idx/len(serveKernels))%len(serveTenants)],
		Workload: serveKernels[idx%len(serveKernels)],
		Tiles:    h.sz.serveTiles,
		Ops:      ops,
		Seed:     seed,
		Mode:     string(repro.ModeReciprocal),
		Metrics:  metrics,
	}
}

// client is one closed-loop caller.
type client struct {
	http *http.Client
	base string
}

func newClient(base string) *client {
	return &client{
		http: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}},
		base: base,
	}
}

func (c *client) close() { c.http.CloseIdleConnections() }

// get reads a whole response body, so the connection is reused.
func (c *client) get(path string) ([]byte, int, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

func (c *client) submit(req cosimd.SubmitRequest) (cosimd.SessionStatus, error) {
	var st cosimd.SessionStatus
	body, err := json.Marshal(req)
	if err != nil {
		return st, err
	}
	resp, err := c.http.Post(c.base+"/api/v1/sessions", "application/json", bytes.NewReader(body))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return st, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return st, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(blob))
	}
	return st, json.Unmarshal(blob, &st)
}

// batch is one fixed-size closed-loop load: serveBatch sessions, served
// serveOutstanding per client at a time, from the first POST to the last
// result in hand. The work in it is fixed, so its wall time is the
// measurement; a load cut off by a timer instead completes a number of
// sessions that depends on which ones the clients happen to be blocked on.
type batch struct {
	sessions []*served
	wall     time.Duration
	slow     float64 // host slowness beside it (untraced runs)
	cycles   uint64  // simulated cycles of its sessions, set by check
}

// rate is completed sessions per host second.
func (b *batch) rate() float64 { return float64(len(b.sessions)) / b.wall.Seconds() }

// runBatch drives sessions firstIdx .. firstIdx+n-1 through the server:
// each client keeps serveOutstanding of its share in flight and consumes
// results in the order it submitted them (/events until the stream ends,
// then /result).
func (h *harness) runBatch(clients []*client, firstIdx, n int, metrics bool, parent int) batch {
	perClient := make([][]*served, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for c, cl := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var queue []*served
			next := firstIdx + c
			for {
				for len(queue) < h.sz.serveOutstanding && next < firstIdx+n {
					s := &served{req: h.serveRequest(next, metrics)}
					next += len(clients)
					h.submitOne(cl, s, parent)
					perClient[c] = append(perClient[c], s)
					if s.id != "" {
						queue = append(queue, s)
					}
				}
				if len(queue) == 0 {
					return
				}
				s := queue[0]
				queue = queue[1:]
				h.collectOne(cl, s, parent)
			}
		}()
	}
	wg.Wait()
	out := batch{wall: time.Since(start)}
	for _, list := range perClient {
		out.sessions = append(out.sessions, list...)
	}
	return out
}

func (h *harness) submitOne(cl *client, s *served, parent int) {
	sp := h.tr.begin("submit", "cosimd", parent)
	s.sent = time.Now()
	st, err := cl.submit(s.req)
	s.submitRTT = time.Since(s.sent)
	h.tr.end(sp)
	if err != nil {
		s.problems = append(s.problems, err.Error())
		return
	}
	s.id = st.ID
}

// collectOne blocks on the session's event stream until the server ends
// it (the session reached a final state), then fetches the result.
func (h *harness) collectOne(cl *client, s *served, parent int) {
	sp := h.tr.begin("wait", "cosimd", parent)
	t0 := time.Now()
	_, code, err := cl.get("/api/v1/sessions/" + s.id + "/events")
	done := time.Now()
	h.tr.end(sp)
	s.wait = done.Sub(t0)
	if err != nil || code != http.StatusOK {
		s.problems = append(s.problems, fmt.Sprintf("events: HTTP %d: %v", code, err))
		return
	}
	sp = h.tr.begin("result", "cosimd", parent)
	body, code, err := cl.get("/api/v1/sessions/" + s.id + "/result")
	s.inHand = time.Now()
	h.tr.end(sp)
	s.fetchT = s.inHand.Sub(done)
	if err != nil || code != http.StatusOK {
		s.problems = append(s.problems, fmt.Sprintf("result: HTTP %d: %v: %s", code, err, bytes.TrimSpace(body)))
		return
	}
	s.envelope = body
}

// checkServed decodes a session's envelope and checks the run it
// describes; every verifyEvery-th session is also re-run in process and
// its fingerprint compared.
func (h *harness) checkServed(i int, s *served) (cycles uint64) {
	problems := s.problems
	var env cosimd.ResultEnvelope
	switch {
	case s.envelope == nil:
		if len(problems) == 0 {
			problems = append(problems, "no result")
		}
	case json.Unmarshal(s.envelope, &env) != nil:
		problems = append(problems, "undecodable result envelope")
	default:
		cycles = uint64(env.Result.ExecCycles)
		h.fingerprints[fmt.Sprintf("serve/%s/%d", s.req.Workload, s.req.Seed)] = env.Fingerprint
		if !env.Result.Finished || env.Result.Stalled {
			problems = append(problems, "served run did not finish")
		}
		if budget := uint64(s.req.Tiles) * uint64(s.req.Ops); env.Result.Retired < budget {
			problems = append(problems, fmt.Sprintf("retired %d operations, fewer than the %d budgeted", env.Result.Retired, budget))
		}
		if i%h.sz.serveVerifyEvery == 0 {
			direct := h.runSession(simJob{
				label: "verify", kernel: s.req.Workload, tiles: s.req.Tiles, ops: s.req.Ops,
				mode: repro.Mode(s.req.Mode), seed: s.req.Seed,
			}, false, -1)
			problems = append(problems, direct.problems...)
			if direct.fp != env.Fingerprint {
				problems = append(problems, "served fingerprint differs from a direct in-process run")
			}
		}
	}
	h.attempt(fmt.Sprintf("session %s (%s seed %d)", s.id, s.req.Workload, s.req.Seed), problems)
	return cycles
}

// startServer brings up cosimd behind a loopback listener and waits
// until it answers: one request over a fresh connection.
func startServer(stateDir string) (*cosimd.Server, *httptest.Server, error) {
	opts := serveOptions
	opts.StateDir = stateDir
	srv, err := cosimd.NewServer(opts)
	if err != nil {
		return nil, nil, err
	}
	ts := httptest.NewServer(srv.Handler())
	cl := newClient(ts.URL)
	defer cl.close()
	if _, code, err := cl.get("/api/v1/stats"); err != nil || code != http.StatusOK {
		ts.Close()
		srv.Close()
		return nil, nil, fmt.Errorf("first request: HTTP %d: %v", code, err)
	}
	return srv, ts, nil
}

// runServeChurn is the serve_churn workload.
func (h *harness) runServeChurn() {
	stateRoot, err := os.MkdirTemp(h.outDir, "state-")
	if err != nil {
		h.attempt("server state directory", []string{err.Error()})
		return
	}
	defer os.RemoveAll(stateRoot)
	baseline := heapNow()

	// Set-up is starting a server a client can talk to; the last one
	// started serves the load.
	starts := 0
	start := func() (*cosimd.Server, *httptest.Server, error) {
		starts++
		return startServer(filepath.Join(stateRoot, strconv.Itoa(starts)))
	}
	h.sampleSetups(func() (func(), error) {
		s, t, err := start()
		if err != nil {
			return nil, err
		}
		return func() {
			t.Close()
			s.Close()
		}, nil
	})
	srv, ts, err := start()
	if err != nil {
		h.attempt("server start", []string{err.Error()})
		return
	}
	defer func() {
		ts.Close()
		if err := srv.Close(); err != nil {
			h.note("server close: %v", err)
		}
	}()

	clients := make([]*client, serveClients())
	for i := range clients {
		clients[i] = newClient(ts.URL)
		defer clients[i].close()
	}
	// One untimed batch first: connections, the fork pool's shells and the
	// heap reach the state the later batches find.
	next := 0
	run := func(metrics bool, parent int) batch {
		b := h.runBatch(clients, next, h.sz.serveBatch, metrics, parent)
		next += h.sz.serveBatch
		return b
	}
	warmup := run(false, -1)
	all := []*batch{&warmup}

	if !h.traced {
		// Fixed-size batches until the window is spent (at least three), the
		// host's speed read beside each, medians reported.
		var timed []*batch
		began := time.Now()
		for n := 1; ; n++ {
			stop := h.sampleHost()
			root := h.tr.begin("batch", "harness", -1)
			b := run(false, root)
			h.tr.end(root)
			b.slow = stop()
			timed = append(timed, &b)
			if n >= 3 && h.remaining(began) < b.wall {
				break
			}
		}
		all = append(all, timed...)
		held := liveMB(heapNow(), baseline)
		finished := h.checkBatches(all)
		// The server never forgets a session, so what it holds grows with
		// the number served: the steady number is the heap retained per
		// hundred finished sessions.
		if finished > 0 {
			h.observe("live_heap_mb", held*100/float64(finished))
		}
		samples := 0
		for _, b := range timed {
			h.observeScaled("sessions_per_s", b.rate()*b.slow, b.rate())
			for _, lat := range latencies(b.sessions) {
				h.observeScaled("submit_to_result_p50_ms", lat/b.slow, lat)
				samples++
			}
			if b.cycles > 0 {
				perMcycle := b.wall.Seconds() / float64(b.cycles) * 1e6
				h.observeScaled("wall_s_per_mcycle", perMcycle/b.slow, perMcycle)
			}
		}
		h.note("closed loop: %d clients x %d outstanding, one untimed and %d timed batches of %d sessions (n=%d latency samples)",
			len(clients), h.sz.serveOutstanding, len(timed), h.sz.serveBatch, samples)
		return
	}

	// Traced: batches as the untraced run makes them, alternating with
	// batches whose sessions have their observer armed ("metrics": true),
	// which is what makes the event plane carry metric deltas.
	var sessions []*served
	var overhead []float64
	wall := warmup.wall
	began := time.Now()
	for {
		h.tr.nextRun()
		root := h.tr.begin("batch plain", "harness", -1)
		plain := run(false, root)
		h.tr.end(root)
		h.tr.nextRun()
		root = h.tr.begin("batch traced", "harness", -1)
		traced := run(true, root)
		h.tr.end(root)
		all = append(all, &plain, &traced)
		overhead = append(overhead, (traced.wall.Seconds()/plain.wall.Seconds()-1)*100)
		wall += plain.wall + traced.wall
		if h.remaining(began) < plain.wall+traced.wall {
			break
		}
	}
	h.checkBatches(all)
	for _, b := range all {
		sessions = append(sessions, b.sessions...)
	}
	h.observe("trace.overhead_pct", median(overhead))
	h.observeServeLayers(ts.URL, srv, sessions, wall)
	h.cacheHits(ts.URL, warmup.sessions)
	h.captureProbes(h.sz.captureTiles, h.sz.serveOps)
}

// metricName picks the end-to-end or the per-layer name for a number
// both runs report.
func (h *harness) metricName(endToEndName, perLayerName string) string {
	if h.traced {
		return perLayerName
	}
	return endToEndName
}

// checkBatches checks every session of the batches, totals each batch's
// simulated cycles and reports how many sessions delivered a result.
func (h *harness) checkBatches(batches []*batch) (finished int) {
	i := 0
	for _, b := range batches {
		for _, s := range b.sessions {
			b.cycles += h.checkServed(i, s)
			if s.envelope != nil {
				finished++
			}
			i++
		}
	}
	return finished
}

// latencies lists submit-to-result times, in ms, of the sessions whose
// result reached the client.
func latencies(sessions []*served) []float64 {
	var out []float64
	for _, s := range sessions {
		if s.envelope != nil {
			out = append(out, ms(s.inHand.Sub(s.sent)))
		}
	}
	return out
}

// observeServeLayers reports the client-side split and scrapes the
// server's own accounting once, from /metrics and /api/v1/stats.
func (h *harness) observeServeLayers(base string, srv *cosimd.Server, sessions []*served, wall time.Duration) {
	var rtt, wait, fetch []float64
	for _, s := range sessions {
		if s.envelope == nil {
			continue
		}
		rtt = append(rtt, ms(s.submitRTT))
		wait = append(wait, ms(s.wait))
		fetch = append(fetch, ms(s.fetchT))
	}
	h.observe("cosimd.submit_rtt_ms_p50", median(rtt))
	h.observe("cosimd.wait_ms_p50", median(wait))
	h.observe("cosimd.result_fetch_ms_p50", median(fetch))
	h.observe("cosimd.submit_to_result_p90_ms", quantile(latencies(sessions), 0.9))

	cl := newClient(base)
	defer cl.close()
	page, code, err := cl.get("/metrics")
	if err != nil || code != http.StatusOK {
		h.attempt("scrape /metrics", []string{fmt.Sprintf("HTTP %d: %v", code, err)})
		return
	}
	prom := parseProm(page)
	var st cosimd.ServerStats
	blob, code, err := cl.get("/api/v1/stats")
	if err == nil && code == http.StatusOK {
		err = json.Unmarshal(blob, &st)
	}
	if err != nil || code != http.StatusOK {
		h.attempt("scrape /api/v1/stats", []string{fmt.Sprintf("HTTP %d: %v", code, err)})
		return
	}
	h.attempt("scrape server accounting", nil)

	if w := wall.Seconds() * float64(st.Workers); w > 0 {
		h.observe("cosimd.worker_busy_share", prom["cosimd_worker_busy_seconds_total"]/w)
	}
	h.observe("cosimd.slices", prom["cosimd_slices_total"])
	for _, phase := range []string{"slice", "build", "park_warm", "faultin_warm", "evict_disk", "faultin_disk", "spill"} {
		h.observe("cosimd.phase_"+phase+"_s", prom[`cosimd_phase_wall_seconds_sum{phase="`+phase+`"}`])
	}
	h.observe("cosimd.evictions", float64(st.Evictions))
	h.observe("cosimd.spills", float64(st.Spills))
	if st.Restores > 0 {
		h.observe("cosimd.warm_hit_ratio", float64(st.WarmRestores)/float64(st.Restores))
	}
	h.observe("cosimd.fairness_spread_cyc", float64(st.Fairness.MaxSpread))
	h.observe("obsplane.events_published", float64(st.Obs.Published))
	h.observe("obsplane.events_dropped", float64(st.Obs.Dropped))
}

// parseProm reads a Prometheus text page into sample -> value, the
// sample spelled as on the page (name plus its label set).
func parseProm(page []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(page))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// cacheHits resubmits completed configurations: each must be answered
// from the digest-keyed cache with the very bytes the first run
// returned.
func (h *harness) cacheHits(base string, done []*served) {
	cl := newClient(base)
	defer cl.close()
	var lat []float64
	for _, s := range done {
		if len(lat) == h.sz.serveCacheResubmits {
			break
		}
		if s.envelope == nil {
			continue
		}
		var problems []string
		t0 := time.Now()
		st, err := cl.submit(s.req)
		var body []byte
		if err == nil {
			body, _, err = cl.get("/api/v1/sessions/" + st.ID + "/result")
		}
		took := time.Since(t0)
		switch {
		case err != nil:
			problems = append(problems, err.Error())
		case !st.Cached:
			problems = append(problems, "resubmission was not served from the cache")
		case !bytes.Equal(body, s.envelope):
			problems = append(problems, "cached result differs from the original bytes")
		default:
			lat = append(lat, ms(took))
		}
		h.attempt("cache resubmit "+s.id, problems)
	}
	if len(lat) > 0 {
		h.observe("cosimd.cache_hit_ms_p50", median(lat))
	}
}
