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

	"repro/internal/calib"
	"repro/internal/stats"
)

// Options selects which observability subsystems a run records.
type Options struct {
	// Trace records per-component spans, instants, and counter samples
	// in virtual cycles.
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

// Observer is one run's observability hub. A nil *Observer is the
// disabled path: every method nil-checks and returns immediately, so
// instrumentation sites pay a single predictable branch when
// observability is off.
type Observer struct {
	opts    Options
	trace   *Trace
	metrics *Registry
	calib   *CalibLog
}

// New builds an observer for the selected subsystems. All disabled
// returns a usable observer whose handles are all no-ops; callers
// wanting the true zero path keep a nil *Observer instead.
func New(opts Options) *Observer {
	o := &Observer{opts: opts}
	if opts.Trace {
		o.trace = newTrace(DefaultTraceCap)
	}
	if opts.Metrics {
		o.metrics = NewRegistry()
	}
	if opts.Calib {
		o.calib = &CalibLog{}
	}
	return o
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

// Track resolves a trace track id for a component name (0 when
// tracing is off; harmless, since every Trace method on a nil trace
// is a no-op).
func (o *Observer) Track(name string) int { return o.Trace().Track(name) }

// RetuneSink builds the calib.RetuneSink a reciprocal pairing should
// emit into, attributed to the named component: the event is
// summarised, counted, and recorded as a trace instant on the
// component's track.
// It returns nil — meaning "don't bother emitting" — when neither
// calibration telemetry, metrics, nor tracing wants the events.
func (o *Observer) RetuneSink(component string) calib.RetuneSink {
	if o == nil || (o.calib == nil && o.metrics == nil && o.trace == nil) {
		return nil
	}
	tid := o.Track(component)
	ctr := o.Counter("calib.retunes/" + component)
	fed := o.Counter("calib.fed_retunes/" + component)
	var acc *calibAcc
	if o.calib != nil {
		acc = o.calib.component(component)
	}
	tr := o.trace
	return func(e calib.RetuneEvent) {
		if acc != nil {
			acc.add(e)
		}
		ctr.Inc()
		if e.Observations > 0 {
			fed.Inc()
		}
		if tr != nil {
			tr.Instant(tid, "retune", e.At, map[string]interface{}{
				"alpha": e.Alpha, "beta": e.Beta,
				"residual": e.Residual, "drift": e.Drift,
				"observations": float64(e.Observations),
			})
		}
	}
}

// WriteTrace renders the trace as Chrome trace-event JSON. Writing a
// disabled trace yields a valid, empty document.
func (o *Observer) WriteTrace(w io.Writer) error {
	t := o.Trace()
	if t == nil {
		t = newTrace(1)
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
