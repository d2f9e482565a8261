//simlint:allow-file wallclock host-side telemetry: wall-time here measures the server (phase costs, quantum costs) and is never fed back into simulated state

package cosimd

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
)

// This file is the server's side of the observability plane: the
// per-session glue between the zero-perturbation observer
// (internal/obs) and the session's event hub and flight ring
// (plane.go), plus server-wide wall-cost telemetry (rendered by
// prom.go). The contract mirrors obs's: nothing here is ever read by
// simulated state, every sink is non-blocking, and everything that
// touches a live simulation runs on the one worker that owns it.

// sliceSpanCap bounds the per-slice trace-span scratch: a slice of a
// saturated session can emit thousands of spans, and the stream only
// needs enough to show where virtual time went. Overflow is counted
// and reported on the slice's progress event.
const sliceSpanCap = 512

// sessionObs is one session's observability-plane state. The hub and
// flight ring are internally synchronized (lifecycle transitions are
// published from whichever worker moves the session); everything else
// is owned by the single worker holding the session between fault-in
// and slice completion, exactly like sess.cs itself.
type sessionObs struct {
	id      string
	tenant  string
	metrics bool

	hub    *hub            // nil: event streaming disabled
	flight *flightRecorder // nil: flight recording disabled

	ob        *obs.Observer
	cs        *core.Cosim // ob's simulation; nil once the server drops it
	spans     []Event
	spanDrops uint64
	retunes   []Event // this slice's refits; outside the span cap

	// Flight-entry deltas: the observer's net.delivered,
	// mem.completions and two clamp counters, and their baselines.
	deltaOf [4]*obs.Counter
	last    [4]uint64

	// Metrics-event baselines: last published value per metric.
	lastVals map[string]float64

	sliceStart time.Time
	lastWall   time.Time
}

// newSessionObs builds the plane state for one session according to
// the server's options.
func (s *Server) newSessionObs(id, tenant string, metrics bool) *sessionObs {
	so := &sessionObs{id: id, tenant: tenant, metrics: metrics}
	if s.opts.EventsBuffer > 0 {
		so.hub = &hub{buffer: s.opts.EventsBuffer}
	}
	if s.opts.FlightDepth > 0 {
		so.flight = &flightRecorder{ring: make([]FlightEntry, s.opts.FlightDepth)}
	}
	return so
}

// attach arms observability on a freshly built simulation. Called by
// the owning worker from faultIn's build path only: a parked session
// keeps everything attached. The observer is created once per session,
// so a simulation rebuilt after a spill reports into the registry its
// predecessor left and /metrics covers the whole run, not the cycles
// since the last eviction. A session without metrics gets an observer
// with none, so its flight deltas stay zero.
func (so *sessionObs) attach(cs *core.Cosim) {
	if so.ob == nil {
		so.ob = obs.New(obs.Options{Metrics: so.metrics, Wall: so.metrics})
		if so.metrics && so.hub != nil {
			so.ob.Subscribe(obs.SpanRecord|obs.RetuneRecord, so.record)
		}
		if so.flight != nil {
			so.ob.Subscribe(obs.QuantumRecord, so.quantum)
		}
		for i, name := range []string{"net.delivered", "mem.completions",
			"fullsys.clamped_deliveries", "fullsys.clamped_mem_completions"} {
			so.deltaOf[i] = so.ob.Counter(name)
		}
	}
	so.cs = cs
	cs.SetObserver(so.ob)
}

// beginSlice stamps the slice's wall-clock start (the baseline for
// per-quantum costs). Called by the owning worker just before Run.
func (so *sessionObs) beginSlice() {
	so.sliceStart = time.Now()
	so.lastWall = so.sliceStart
}

// quantum records one flight-ring sample from an end-of-quantum
// record, after Step has folded the quantum into the counters. It only
// reads: counters, retired totals, the in-flight population the record
// carries. O(1), allocation-free.
func (so *sessionObs) quantum(r obs.Record) {
	now := time.Now()
	e := FlightEntry{
		Cycle:     uint64(r.End),
		Kind:      FlightQuantum,
		Retired:   so.cs.Sys.Retired(),
		InFlight:  int(r.Value),
		WallNanos: now.Sub(so.lastWall).Nanoseconds(),
	}
	so.lastWall = now
	var d [4]uint64
	for i, c := range so.deltaOf {
		v := c.Value()
		d[i], so.last[i] = v-so.last[i], v
	}
	e.Delivered, e.MemDone, e.ClampedNet, e.ClampedMem = d[0], d[1], d[2], d[3]
	so.flight.Record(e)
}

// record keeps a span in the bounded per-slice scratch, or a retune,
// uncapped, in another; afterSlice publishes both. Nothing of a
// slice's records is kept once it is published, so a session can run
// forever without growing.
func (so *sessionObs) record(r obs.Record) {
	if r.Kind == obs.RetuneRecord {
		ev := so.event(KindRetune, uint64(r.Start))
		ev.Name = r.Track
		ev.Values = map[string]float64{
			"alpha": r.Fit.Alpha, "beta": r.Fit.Beta,
			"residual": r.Fit.Residual, "drift": r.Fit.Drift,
			"observations": float64(r.Fit.Observations),
		}
		so.retunes = append(so.retunes, ev)
		return
	}
	if len(so.spans) >= sliceSpanCap {
		so.spanDrops++
		return
	}
	ev := so.event(KindSpan, uint64(r.Start))
	ev.Dur, ev.Name, ev.Track = uint64(r.End-r.Start), r.Name, r.Track
	so.spans = append(so.spans, ev)
}

// event starts one of the session's plane events.
func (so *sessionObs) event(kind string, cycle uint64) Event {
	return Event{Kind: kind, Session: so.id, Tenant: so.tenant, Cycle: cycle}
}

// afterSlice flushes the slice's accumulated observations — spans,
// metric deltas, retune instants, a progress sample — into the hub,
// records the slice in the flight ring, and returns the metrics
// snapshot blob for /sessions/{id}/metrics (nil without metrics).
// Runs on the owning worker, off the slice boundary, never inside
// Step; a stalled subscriber costs one failed channel send per event.
func (so *sessionObs) afterSlice(cs *core.Cosim, consumed uint64) []byte {
	cycle := uint64(cs.Cycle())
	retired := cs.Sys.Retired()
	so.flight.Record(FlightEntry{
		Cycle:     cycle,
		Kind:      FlightSlice,
		Retired:   retired,
		WallNanos: time.Since(so.sliceStart).Nanoseconds(),
	})
	for _, ev := range so.spans {
		so.hub.Publish(ev)
	}
	so.spans = so.spans[:0]
	var blob []byte
	if so.metrics {
		var buf bytes.Buffer
		if so.ob.WriteMetrics(&buf) == nil {
			blob = buf.Bytes()
		}
		if so.hub != nil {
			so.publishMetricsDelta(cycle)
		}
	}
	for _, ev := range so.retunes {
		so.hub.Publish(ev)
	}
	so.retunes = so.retunes[:0]
	ev := so.event(KindProgress, cycle)
	ev.Retired, ev.Cycles = retired, consumed
	if so.spanDrops > 0 {
		ev.Values = map[string]float64{"span_drops": float64(so.spanDrops)}
	}
	so.hub.Publish(ev)
	return blob
}

// publishMetricsDelta publishes what changed in the registry since the
// last publish: counters and histogram counts as deltas, gauges as
// current values.
func (so *sessionObs) publishMetricsDelta(cycle uint64) {
	cur := make(map[string]float64)
	vals := make(map[string]float64)
	so.ob.Metrics().Visit(func(v obs.MetricView) {
		name, value := v.Name, v.Value
		if v.Kind == obs.KindHistogram {
			name, value = v.Name+".count", float64(v.Hist.Count())
		}
		cur[name] = value
		switch v.Kind {
		case obs.KindGauge:
			if value != so.lastVals[name] {
				vals[name] = value
			}
		default:
			if d := value - so.lastVals[name]; d != 0 {
				vals[name] = d
			}
		}
	})
	so.lastVals = cur
	if len(vals) == 0 {
		return
	}
	ev := so.event(KindMetrics, cycle)
	ev.Values = vals
	so.hub.Publish(ev)
}

// transition mirrors a lifecycle edge into the flight ring and the
// event stream. Callers may hold the server lock: both sinks are
// non-blocking and never touch the simulator.
func (so *sessionObs) transition(kind string, state State, cycle uint64, note string) {
	so.flight.Record(FlightEntry{Cycle: cycle, Kind: kind, Note: note})
	so.publishState(state, cycle, note)
}

// publishState publishes one lifecycle event.
func (so *sessionObs) publishState(state State, cycle uint64, note string) {
	ev := so.event(KindState, cycle)
	ev.State, ev.Note = string(state), note
	so.hub.Publish(ev)
}

// finish publishes the terminal state event and closes the hub, ending
// every subscriber's stream once their queues drain. The caller
// records any final flight entry first — the ring outlives the hub,
// serving /flight and postmortem dumps after completion.
func (so *sessionObs) finish(state State, cycle uint64, note string) {
	so.publishState(state, cycle, note)
	so.hub.Close()
}

// dumpFlight writes a session's flight ring beside its checkpoints
// (<id>.flight.json) — the automatic postmortem on error and drain. A
// spill does not dump: the ring belongs to the session, not to the
// simulation being dropped, so it stays in memory and on /flight, and
// a second file write per eviction made the disk tier a quarter
// slower. Best-effort; called without the server lock.
func (s *Server) dumpFlight(so *sessionObs, why string) {
	if so.flight == nil || so.flight.Total() == 0 {
		return
	}
	blob, err := json.MarshalIndent(so.flight.Snapshot(), "", "  ")
	if err != nil {
		return
	}
	path := filepath.Join(s.opts.StateDir, so.id+".flight.json")
	if err := ckpt.WriteFile(path, append(blob, '\n')); err != nil { // the file ends in a newline
		s.logf("flight dump %s (%s) failed: %v", so.id, why, err)
		return
	}
	s.logf("session %s flight ring dumped (%s)", so.id, why)
}

// telemetry is the server-wide wall-cost accounting behind /metrics:
// per-phase histograms plus worker-utilization counters. Its mutex is
// a leaf: nothing is acquired under it, so it is safe with or without
// the server lock held.
type telemetry struct {
	mu        sync.Mutex
	phases    map[string]wallHist
	busy      int
	slices    uint64
	busyNanos int64
}

// observe folds one phase cost in.
func (t *telemetry) observe(phase string, d time.Duration) {
	t.mu.Lock()
	h := t.phases[phase]
	h.observe(d)
	t.phases[phase] = h
	t.mu.Unlock()
}

// phaseTimer starts timing a named phase; the returned func records
// it. Keeps all wall-clock reads in this file.
func (s *Server) phaseTimer(phase string) func() {
	start := time.Now()
	return func() { s.tel.observe(phase, time.Since(start)) }
}

// runSliceObserved wraps runSlice with the profiling surface: pprof
// labels keyed by tenant and session (so a CPU or goroutine profile
// attributes worker time to tenants), worker-utilization accounting,
// and the slice phase histogram.
func (s *Server) runSliceObserved(sess *session) {
	start := time.Now()
	s.tel.mu.Lock()
	s.tel.busy++
	s.tel.mu.Unlock()
	pprof.Do(context.Background(),
		pprof.Labels("cosimd_tenant", sess.req.Tenant, "cosimd_session", sess.id),
		func(context.Context) { s.runSlice(sess) })
	d := time.Since(start)
	s.tel.mu.Lock()
	s.tel.busy--
	s.tel.slices++
	s.tel.busyNanos += d.Nanoseconds()
	s.tel.mu.Unlock()
	s.tel.observe("slice", d)
}
