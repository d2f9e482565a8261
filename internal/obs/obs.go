// Package obs is the co-simulator's observability layer: structured
// tracing in virtual cycles (Chrome trace-event JSON, loadable in
// Perfetto), a metrics registry built on internal/stats, and
// calibration telemetry summarising the retunes of every reciprocal
// pairing. It exists to make the paper's central mechanism — when and
// why the abstract model diverges from the detailed component —
// visible at runtime.
//
// The non-negotiable contract is ZERO PERTURBATION: observability is
// off by default, a nil *Observer (and every nil handle it returns)
// is a guarded no-op, and enabling it must not change determinism
// fingerprints or snapshot bytes — observers read simulated state,
// they never feed it. Tests in internal/core assert both directions,
// and the disabled path is benchmarked.
//
// Everything recorded in virtual time is deterministic: equal runs
// produce byte-equal trace and metric dumps. Host wall-clock
// measurement (span wall_ns annotations, the progress heartbeat) is
// opt-in, clearly segregated, and never fed back into simulated state.
package obs

import (
	"io"
	"time"

	"repro/internal/calib"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Options selects which observability subsystems a run records.
type Options struct {
	// Trace records per-component spans, retune instants, and counter
	// samples in virtual cycles.
	Trace bool
	// Metrics arms the counter/gauge/histogram registry.
	Metrics bool
	// Calib summarises every reciprocal retune event in a CalibLog.
	Calib bool
	// Wall annotates spans with host-time measurements. The annotations
	// are nondeterministic (they measure the host, not the target), so
	// golden-file tests leave this off; simulated state is unaffected
	// either way.
	Wall bool
}

// RecordKind is one kind of observation record. Kinds are bits, so a
// set of them (SpanRecord|RetuneRecord) is what a subscriber asks for.
type RecordKind uint8

const (
	// SpanRecord is a component's work over [Start, End) on its Track
	// ("tick" for the full system, "advance" for a component), with
	// its host cost in Wall when the observer times spans.
	SpanRecord RecordKind = 1 << iota
	// RetuneRecord is one refit of the reciprocal pairing named by
	// Track, at Start, with the fit in Fit.
	RetuneRecord
	// SampleRecord is the counter Name sampled at Start, in Value.
	SampleRecord
	// QuantumRecord ends the quantum [Start, End), after its metrics
	// are folded in; Value is the network's in-flight count at End.
	QuantumRecord
)

// Record is one observation. Emitters build it only when some
// subscriber wants its kind, and hand it over by value: nothing is
// allocated to observe.
type Record struct {
	Kind RecordKind
	// Track is the component the record is about (empty for samples
	// and quanta).
	Track string
	// Name names the span, the sample's counter, or "retune".
	Name       string
	Start, End sim.Cycle
	Value      float64
	// Wall is a span's host cost (zero unless Options.Wall).
	Wall time.Duration
	// Fit is a retune's refit.
	Fit calib.RetuneEvent
}

// subscription is one consumer of the record stream.
type subscription struct {
	kinds RecordKind
	fn    func(Record)
}

// Observer is one run's observability hub. A nil *Observer is the
// disabled path: every method nil-checks and returns immediately, so
// instrumentation sites pay a single predictable branch when
// observability is off.
type Observer struct {
	opts    Options
	trace   *Trace
	metrics *Registry
	calib   *CalibLog
	subs    []subscription
	wants   RecordKind
}

// New builds an observer for the selected subsystems. All disabled
// returns a usable observer whose handles are all no-ops; callers
// wanting the true zero path keep a nil *Observer instead. The trace
// subscribes to spans, retunes and samples, the calibration log to
// retunes.
func New(opts Options) *Observer {
	o := &Observer{opts: opts}
	if opts.Metrics {
		o.metrics = NewRegistry()
	}
	if opts.Calib {
		o.calib = &CalibLog{}
		o.Subscribe(RetuneRecord, o.calib.add)
	}
	if opts.Trace {
		o.trace = newTrace(DefaultTraceCap, opts.Wall)
		o.Subscribe(SpanRecord|RetuneRecord|SampleRecord, o.trace.add)
	}
	return o
}

// Subscribe hands fn every record of the given kinds, in emission
// order, on the simulating goroutine; fn must only observe. Subscribe
// before the observer is attached (core.Cosim.SetObserver), which is
// when the retune sinks are wired.
func (o *Observer) Subscribe(kinds RecordKind, fn func(Record)) {
	o.subs = append(o.subs, subscription{kinds, fn})
	o.wants |= kinds
}

// Wants reports whether any subscriber takes records of kind k; an
// emitter checks it before building one.
func (o *Observer) Wants(k RecordKind) bool { return o != nil && o.wants&k != 0 }

// Emit hands r to every subscriber of its kind.
func (o *Observer) Emit(r Record) {
	for _, s := range o.subs {
		if s.kinds&r.Kind != 0 {
			s.fn(r)
		}
	}
}

// Wall reports whether spans should carry host-time annotations.
func (o *Observer) Wall() bool { return o != nil && o.opts.Wall }

// Trace exposes the trace recorder (nil when tracing is off, which
// every Trace method tolerates).
func (o *Observer) Trace() *Trace {
	if o == nil {
		return nil
	}
	return o.trace
}

// Metrics exposes the registry (nil when metrics are off, which every
// Registry method tolerates).
func (o *Observer) Metrics() *Registry {
	if o == nil {
		return nil
	}
	return o.metrics
}

// Calib exposes the retune summaries (nil when calibration telemetry
// is off, which every CalibLog method tolerates).
func (o *Observer) Calib() *CalibLog {
	if o == nil {
		return nil
	}
	return o.calib
}

// Counter resolves a named counter handle (nil when metrics are off).
func (o *Observer) Counter(name string) *Counter { return o.Metrics().Counter(name) }

// Gauge resolves a named gauge handle (nil when metrics are off).
func (o *Observer) Gauge(name string) *Gauge { return o.Metrics().Gauge(name) }

// Histogram resolves a named histogram handle (nil when metrics are
// off).
func (o *Observer) Histogram(name string, binWidth float64, bins int) *Histogram {
	return o.Metrics().Histogram(name, binWidth, bins)
}

// RetuneSink builds the calib.RetuneSink a reciprocal pairing should
// emit into, attributed to the named component: the event is counted
// and emitted as a retune record.
// It returns nil — meaning "don't bother emitting" — when neither
// metrics nor a subscriber wants the events.
func (o *Observer) RetuneSink(component string) calib.RetuneSink {
	if o == nil || (o.metrics == nil && !o.Wants(RetuneRecord)) {
		return nil
	}
	ctr := o.Counter("calib.retunes/" + component)
	fed := o.Counter("calib.fed_retunes/" + component)
	return func(e calib.RetuneEvent) {
		ctr.Inc()
		if e.Observations > 0 {
			fed.Inc()
		}
		if o.Wants(RetuneRecord) {
			o.Emit(Record{Kind: RetuneRecord, Track: component, Name: "retune", Start: e.At, End: e.At, Fit: e})
		}
	}
}

// WriteTrace renders the trace as Chrome trace-event JSON. Writing a
// disabled trace yields a valid, empty document.
func (o *Observer) WriteTrace(w io.Writer) error {
	t := o.Trace()
	if t == nil {
		t = newTrace(1, false)
	}
	return t.Write(w)
}

// WriteMetrics dumps the registry as JSON (an empty document when
// metrics are off).
func (o *Observer) WriteMetrics(w io.Writer) error {
	r := o.Metrics()
	if r == nil {
		r = NewRegistry()
	}
	return r.WriteJSON(w)
}

// MetricsTable renders the registry as a human table.
func (o *Observer) MetricsTable(title string) *stats.Table {
	r := o.Metrics()
	if r == nil {
		r = NewRegistry()
	}
	return r.Table(title)
}

// CalibTable renders the per-component divergence summary.
func (o *Observer) CalibTable(title string) *stats.Table { return o.Calib().Table(title) }
