//simlint:allow-file wallclock host-side telemetry: wall-time here measures the server (phase costs, quantum costs) and is never fed back into simulated state

package cosimd

import (
	"context"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"time"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obsplane"
	"repro/internal/sim"
)

// This file is the server's side of the observability plane: the
// per-session glue between the zero-perturbation observer
// (internal/obs) and the fan-out/retention machinery
// (internal/obsplane), plus server-wide wall-cost telemetry. The
// contract mirrors obs's: nothing here is ever read by simulated
// state, every sink is non-blocking, and everything that touches a
// live simulation runs on the one worker that owns it.

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

	hub    *obsplane.Hub            // nil: event streaming disabled
	flight *obsplane.FlightRecorder // nil: flight recording disabled

	ob         *obs.Observer
	trackNames []string
	spans      []obsplane.Event
	spanDrops  uint64

	// Flight-entry delta baselines over the observer's counters.
	delivered, memDone, clampNet, clampMem                 *obs.Counter
	lastDelivered, lastMemDone, lastClampNet, lastClampMem uint64

	// Metrics-event baselines: last published value per metric.
	lastVals  map[string]float64
	lastCalib int

	sliceStart time.Time
	lastWall   time.Time
}

// newSessionObs builds the plane state for one session according to
// the server's options.
func (s *Server) newSessionObs(id, tenant string, metrics bool) *sessionObs {
	so := &sessionObs{id: id, tenant: tenant, metrics: metrics}
	if s.opts.EventsBuffer >= 0 {
		so.hub = obsplane.NewHub(s.opts.EventsBuffer)
	}
	so.flight = obsplane.NewFlightRecorder(s.opts.FlightDepth)
	return so
}

// attach arms observability on a freshly built simulation. Called by
// the owning worker from faultIn's build path only: a parked session
// keeps everything attached. The observer is created once per session,
// so a simulation rebuilt after a spill reports into the registry its
// predecessor left and /metrics covers the whole run, not the cycles
// since the last eviction.
func (so *sessionObs) attach(cs *core.Cosim) {
	if so.metrics {
		if so.ob == nil {
			so.ob = obs.New(obs.Options{
				Metrics: true,
				Calib:   true,
				Trace:   so.hub != nil,
				Wall:    true,
			})
			if so.hub != nil {
				so.ob.Trace().SetSink(so.spanSink)
			}
			reg := so.ob.Metrics()
			so.delivered = reg.Counter("net.delivered")
			so.memDone = reg.Counter("mem.completions")
			so.clampNet = reg.Counter("fullsys.clamped_deliveries")
			so.clampMem = reg.Counter("fullsys.clamped_mem_completions")
		}
		cs.SetObserver(so.ob)
		so.trackNames = so.ob.Trace().TrackNames()
	}
	if so.flight != nil {
		cs.Progress = func(c sim.Cycle) { so.quantum(cs, c) }
	}
}

// beginSlice stamps the slice's wall-clock start (the baseline for
// per-quantum costs). Called by the owning worker just before Run.
func (so *sessionObs) beginSlice() {
	so.sliceStart = time.Now()
	so.lastWall = so.sliceStart
}

// quantum records one flight-ring sample. It runs as cs.Progress —
// once per coupling quantum, on the slice boundary after Step
// returned — and only reads: counters, retired totals, in-flight
// population. O(1), allocation-free.
func (so *sessionObs) quantum(cs *core.Cosim, c sim.Cycle) {
	now := time.Now()
	e := obsplane.FlightEntry{
		Cycle:     uint64(c),
		Kind:      obsplane.FlightQuantum,
		Retired:   cs.Sys.Retired(),
		InFlight:  cs.Net.InFlight(),
		WallNanos: now.Sub(so.lastWall).Nanoseconds(),
	}
	so.lastWall = now
	if so.ob != nil {
		d := so.delivered.Value()
		e.Delivered, so.lastDelivered = d-so.lastDelivered, d
		d = so.memDone.Value()
		e.MemDone, so.lastMemDone = d-so.lastMemDone, d
		d = so.clampNet.Value()
		e.ClampedNet, so.lastClampNet = d-so.lastClampNet, d
		d = so.clampMem.Value()
		e.ClampedMem, so.lastClampMem = d-so.lastClampMem, d
	}
	so.flight.Record(e)
}

// spanSink receives every trace event the observer emits and keeps
// complete ("X") spans in a bounded per-slice scratch; afterSlice
// publishes them. With the sink installed the obs trace buffers
// nothing, so a session can run forever without the trace growing.
func (so *sessionObs) spanSink(e obs.Event) {
	if e.Ph != "X" {
		return
	}
	if len(so.spans) >= sliceSpanCap {
		so.spanDrops++
		return
	}
	track := ""
	if e.Tid >= 0 && e.Tid < len(so.trackNames) {
		track = so.trackNames[e.Tid]
	}
	so.spans = append(so.spans, obsplane.Event{
		Kind:    obsplane.KindSpan,
		Session: so.id,
		Tenant:  so.tenant,
		Cycle:   e.Ts,
		Dur:     e.Dur,
		Name:    e.Name,
		Track:   track,
	})
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
	so.flight.Record(obsplane.FlightEntry{
		Cycle:     cycle,
		Kind:      obsplane.FlightSlice,
		Retired:   retired,
		WallNanos: time.Since(so.sliceStart).Nanoseconds(),
	})
	if so.hub != nil {
		for _, ev := range so.spans {
			so.hub.Publish(ev)
		}
	}
	so.spans = so.spans[:0]
	var blob []byte
	if so.ob != nil {
		blob = metricsSnapshot(so.ob)
		if so.hub != nil {
			so.publishMetricsDelta(cycle)
			so.publishRetunes()
		}
	}
	if so.hub != nil {
		ev := obsplane.Event{
			Kind:    obsplane.KindProgress,
			Session: so.id,
			Tenant:  so.tenant,
			Cycle:   cycle,
			Retired: retired,
			Cycles:  consumed,
		}
		if so.spanDrops > 0 {
			ev.Values = map[string]float64{"span_drops": float64(so.spanDrops)}
		}
		so.hub.Publish(ev)
	}
	return blob
}

// metricsSnapshot marshals the observer's registry.
func metricsSnapshot(ob *obs.Observer) []byte {
	var buf jsonBuffer
	if err := ob.WriteMetrics(&buf); err != nil {
		return nil
	}
	return buf.bytes
}

// jsonBuffer is a minimal io.Writer (avoids importing bytes for one
// call site).
type jsonBuffer struct{ bytes []byte }

func (b *jsonBuffer) Write(p []byte) (int, error) {
	b.bytes = append(b.bytes, p...)
	return len(p), nil
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
	so.hub.Publish(obsplane.Event{
		Kind:    obsplane.KindMetrics,
		Session: so.id,
		Tenant:  so.tenant,
		Cycle:   cycle,
		Values:  vals,
	})
}

// publishRetunes publishes one event per calibration refit since the
// last slice.
func (so *sessionObs) publishRetunes() {
	recs := so.ob.Calib().Records()
	for _, r := range recs[so.lastCalib:] {
		so.hub.Publish(obsplane.Event{
			Kind:    obsplane.KindRetune,
			Session: so.id,
			Tenant:  so.tenant,
			Cycle:   uint64(r.Event.At),
			Name:    r.Component,
			Values: map[string]float64{
				"alpha":        r.Event.Alpha,
				"beta":         r.Event.Beta,
				"residual":     r.Event.Residual,
				"drift":        r.Event.Drift,
				"observations": float64(r.Event.Observations),
			},
		})
	}
	so.lastCalib = len(recs)
}

// transition mirrors a lifecycle edge into the flight ring and the
// event stream. Callers may hold the server lock: both sinks are
// non-blocking and never touch the simulator.
func (so *sessionObs) transition(kind string, state State, cycle uint64, note string) {
	so.flight.Record(obsplane.FlightEntry{Cycle: cycle, Kind: kind, Note: note})
	so.hub.Publish(obsplane.Event{
		Kind:    obsplane.KindState,
		Session: so.id,
		Tenant:  so.tenant,
		Cycle:   cycle,
		State:   string(state),
		Note:    note,
	})
}

// finish publishes the terminal state event and closes the hub, ending
// every subscriber's stream once their queues drain. The caller
// records any final flight entry first — the ring outlives the hub,
// serving /flight and postmortem dumps after completion.
func (so *sessionObs) finish(state State, cycle uint64, note string) {
	so.hub.Publish(obsplane.Event{
		Kind:    obsplane.KindState,
		Session: so.id,
		Tenant:  so.tenant,
		Cycle:   cycle,
		State:   string(state),
		Note:    note,
	})
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
	var buf jsonBuffer
	if err := so.flight.WriteJSON(&buf); err != nil {
		return
	}
	path := filepath.Join(s.opts.StateDir, so.id+".flight.json")
	if err := ckpt.WriteFile(path, buf.bytes); err != nil {
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
	phases    map[string]*obsplane.WallHist
	busy      int
	slices    uint64
	busyNanos int64
}

// observe folds one phase cost in.
func (t *telemetry) observe(phase string, d time.Duration) {
	t.mu.Lock()
	if t.phases == nil {
		t.phases = make(map[string]*obsplane.WallHist)
	}
	h := t.phases[phase]
	if h == nil {
		h = &obsplane.WallHist{}
		t.phases[phase] = h
	}
	t.mu.Unlock()
	h.Observe(d)
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
