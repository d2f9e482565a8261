package dram

import (
	"fmt"

	"repro/internal/calib"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Oracle is the memory-side component contract of reciprocal
// abstraction, mirroring the network Backend: the directory enqueues
// typed requests, the coordinator (or the standalone system) advances
// the oracle to a quantum boundary, and timestamped completions are
// drained afterwards. Three fidelities implement it — the bank-level
// controller (DetailedOracle), an analytical latency model
// (AbstractOracle), and the calibrated pairing of the two
// (CalibratedOracle) — selectable per run exactly like the network
// abstraction level.
type Oracle interface {
	// Name identifies the oracle in tables and logs.
	Name() string
	// Enqueue accepts a request arriving at cycle now; it reports
	// false when a bounded queue is full (the caller retries).
	// Arrivals must be in nondecreasing time order.
	Enqueue(r Request, now sim.Cycle) bool
	// AdvanceTo simulates through the end of cycle c-1, so completions
	// with At <= c are final.
	AdvanceTo(c sim.Cycle)
	// Drain returns completions produced since the last drain, each
	// with its request, in deterministic (completion time, arrival
	// order) order. The returned slice is reused.
	Drain() []Completion
	// Pending reports accepted-but-uncompleted requests.
	Pending() int
	// Stats summarizes the oracle's behaviour: measured bank-level
	// statistics for detailed and calibrated oracles, model-side
	// latency for the pure abstract one.
	Stats() Stats
	// Close releases oracle resources.
	Close()
}

// DetailedOracle adapts the bank-level Controller to the Oracle
// contract: the completions its ticks return are buffered, so the
// controller can be advanced a whole quantum at a time and drained at
// the boundary — the same exchange the detailed NoC uses.
type DetailedOracle struct {
	ctl   *Controller
	cycle sim.Cycle
	buf   []Completion
	out   []Completion //simlint:derived drain scratch, valid only until the next Drain call
}

// NewDetailedOracle returns a detailed oracle over a fresh controller.
func NewDetailedOracle(cfg Config) (*DetailedOracle, error) {
	ctl, err := NewController(cfg)
	if err != nil {
		return nil, err
	}
	return &DetailedOracle{ctl: ctl}, nil
}

// Name implements Oracle.
func (o *DetailedOracle) Name() string { return "dram-detailed" }

// Enqueue implements Oracle.
func (o *DetailedOracle) Enqueue(r Request, now sim.Cycle) bool { return o.ctl.Enqueue(r, now) }

// AdvanceTo implements Oracle by replaying the controller tick for
// every cycle in the window. FR-FCFS issues in the same cycles it
// would under per-cycle coupling because pick skips requests that
// have not arrived at the replayed tick yet.
func (o *DetailedOracle) AdvanceTo(c sim.Cycle) {
	for ; o.cycle < c; o.cycle++ {
		if done, ok := o.ctl.Tick(o.cycle); ok {
			o.buf = append(o.buf, done)
		}
	}
}

// Drain implements Oracle. The controller issues at most one request
// per tick and returns its completion at issue, so the buffer is
// already in deterministic issue order.
func (o *DetailedOracle) Drain() []Completion {
	o.out = append(o.out[:0], o.buf...)
	o.buf = o.buf[:0]
	return o.out
}

// Pending implements Oracle: queued plus completed-but-undrained.
func (o *DetailedOracle) Pending() int { return o.ctl.Pending() + len(o.buf) }

// Stats implements Oracle with the controller's measured statistics.
func (o *DetailedOracle) Stats() Stats { return o.ctl.Snapshot() }

// Controller exposes the underlying bank-level model (tests, tables).
func (o *DetailedOracle) Controller() *Controller { return o.ctl }

// Close implements Oracle.
func (o *DetailedOracle) Close() {}

// absPending is one analytically timed in-flight request and its
// arrival sequence, which the snapshot carries.
type absPending struct {
	seq uint64
	req Request
}

// AbstractOracle is the analytical memory model: a fixed base access
// latency plus controller-occupancy serialization, corrected by an
// online-tuned affine fit — the memory twin of abstractnet's fixed
// model wrapped in Tuned. Completion times are resolved analytically
// at Enqueue, mirroring abstractnet.Network.
type AbstractOracle struct {
	baseLat   float64   //simlint:derived construction input; the restore target is built with the same latency
	occupancy sim.Cycle //simlint:derived construction input; the restore target is built with the same occupancy
	fit       *calib.Affine

	nextFree sim.Cycle
	cycle    sim.Cycle
	seq      uint64

	// pending is keyed by completion time; requests are scheduled in
	// arrival order, so the queue's (When, Seq) order is (completion
	// time, seq).
	pending sim.TypedQueue[absPending]
	out     []Completion //simlint:derived drain scratch, valid only until the next Drain call

	reads, writes uint64
	latency       stats.Running
}

// NewAbstractOracle returns an abstract oracle with the given base
// access latency, per-request occupancy, and fit window.
func NewAbstractOracle(baseLat, occupancy, window int) (*AbstractOracle, error) {
	if baseLat < 1 || occupancy < 1 {
		return nil, fmt.Errorf("dram: invalid abstract oracle latency=%d occupancy=%d", baseLat, occupancy)
	}
	return &AbstractOracle{
		baseLat:   float64(baseLat),
		occupancy: sim.Cycle(occupancy),
		fit:       calib.NewAffine(window),
	}, nil
}

// Name implements Oracle.
func (o *AbstractOracle) Name() string { return "dram-abstract" }

// Fit exposes the affine correction the calibration feed re-tunes.
func (o *AbstractOracle) Fit() *calib.Affine { return o.fit }

// enqueue resolves the completion analytically and reports the
// predicted total latency (queueing + corrected access) in cycles.
func (o *AbstractOracle) enqueue(r Request, now sim.Cycle) float64 {
	start := now
	if o.nextFree > start {
		start = o.nextFree
	}
	o.nextFree = start + o.occupancy
	lat := o.fit.Apply(o.baseLat)
	if lat < 1 {
		lat = 1
	}
	at := start + sim.Cycle(lat+0.5)
	o.pending.Schedule(at, absPending{seq: o.seq, req: r})
	o.seq++
	if r.Write {
		o.writes++
	} else {
		o.reads++
	}
	total := float64(at - now)
	o.latency.Add(total)
	return total
}

// Enqueue implements Oracle; the analytical queue is unbounded.
func (o *AbstractOracle) Enqueue(r Request, now sim.Cycle) bool {
	o.enqueue(r, now)
	return true
}

// AdvanceTo implements Oracle by moving the analytical clock.
func (o *AbstractOracle) AdvanceTo(c sim.Cycle) { o.cycle = c }

// Drain implements Oracle, popping completions due by the clock.
func (o *AbstractOracle) Drain() []Completion {
	out := o.out[:0]
	for {
		d, ok := o.pending.PopUntil(o.cycle)
		if !ok {
			break
		}
		out = append(out, Completion{At: d.When, Request: d.Item.req})
	}
	o.out = out
	return out
}

// Pending implements Oracle.
func (o *AbstractOracle) Pending() int { return o.pending.Len() }

// Stats implements Oracle with model-side statistics: request counts
// and the mean analytical latency; there are no banks to report on.
func (o *AbstractOracle) Stats() Stats {
	return Stats{
		Reads:      o.reads,
		Writes:     o.writes,
		AvgLatency: o.latency.Mean(),
	}
}

// Close implements Oracle.
func (o *AbstractOracle) Close() {}

// CalibratedOracle is the reciprocal pairing of the two memory
// fidelities, mirroring the calibrated network backend: the system's
// completion timing comes from the abstract model, while every request
// is also replicated into the bank-level controller, whose measured
// latencies feed the shared affine fit back through a
// calib.Reciprocal — so the analytical latency tracks the detailed
// component's behaviour online.
type CalibratedOracle struct {
	abs  *AbstractOracle
	det  *DetailedOracle
	pair *calib.Reciprocal

	shadowSeq uint64
	arrived   map[uint64]sim.Cycle
}

// NewCalibratedOracle pairs a fresh detailed controller with an
// abstract model; observations refit the model every retune cycles.
func NewCalibratedOracle(cfg Config, baseLat, occupancy, window int, retune sim.Cycle) (*CalibratedOracle, error) {
	abs, err := NewAbstractOracle(baseLat, occupancy, window)
	if err != nil {
		return nil, err
	}
	det, err := NewDetailedOracle(cfg)
	if err != nil {
		return nil, err
	}
	return &CalibratedOracle{
		abs:     abs,
		det:     det,
		pair:    calib.NewReciprocal(abs.Fit(), retune),
		arrived: make(map[uint64]sim.Cycle),
	}, nil
}

// Name implements Oracle.
func (o *CalibratedOracle) Name() string { return "dram-calibrated" }

// Enqueue implements Oracle: the caller-visible completion is timed by
// the abstract model; a shadow copy carries the measurement through
// the bank-level controller. A full shadow queue only costs the
// observation — the caller's request is never rejected.
func (o *CalibratedOracle) Enqueue(r Request, now sim.Cycle) bool {
	pred := o.abs.enqueue(r, now)
	id := o.shadowSeq
	o.shadowSeq++
	if o.det.Enqueue(Request{Line: r.Line, Write: r.Write, Tag: id}, now) {
		o.pair.Predict(id, pred)
		o.arrived[id] = now
	}
	return true
}

// AdvanceTo implements Oracle, advancing both fidelities and feeding
// the shadow controller's completions back as calibration
// observations.
func (o *CalibratedOracle) AdvanceTo(c sim.Cycle) {
	o.abs.AdvanceTo(c)
	o.det.AdvanceTo(c)
	for _, comp := range o.det.Drain() {
		if at, ok := o.arrived[comp.Tag]; ok {
			o.pair.Observe(comp.Tag, float64(comp.At-at))
			delete(o.arrived, comp.Tag)
		}
	}
	o.pair.MaybeRetune(c)
}

// Drain implements Oracle with the model-timed completions.
func (o *CalibratedOracle) Drain() []Completion { return o.abs.Drain() }

// Pending implements Oracle; system progress depends on the timing
// side only.
func (o *CalibratedOracle) Pending() int { return o.abs.Pending() }

// Stats implements Oracle with the DETAILED controller's measured
// statistics — the reciprocal measurement taken on the system's real
// memory traffic.
func (o *CalibratedOracle) Stats() Stats { return o.det.Stats() }

// ModelAvgLatency reports the abstract side's mean latency, which the
// A3 experiment compares against the measured one.
func (o *CalibratedOracle) ModelAvgLatency() float64 { return o.abs.latency.Mean() }

// Fit exposes the shared affine correction (tests inspect the fit).
func (o *CalibratedOracle) Fit() *calib.Affine { return o.abs.Fit() }

// Observations reports how many shadow measurements reached the fit
// window.
func (o *CalibratedOracle) Observations() int { return o.abs.Fit().ObservationCount() }

// Close implements Oracle.
func (o *CalibratedOracle) Close() {}

// SetRetuneSink installs a retune observer on the oracle's reciprocal
// pairing (the core coordinator wires one in when observability is
// enabled; see core.RetuneObservable). Observation only — the sink
// never feeds the fit.
func (o *CalibratedOracle) SetRetuneSink(s calib.RetuneSink) { o.pair.SetSink(s) }
