package obs

import (
	"encoding/json"
	"io"
	"sort"

	"repro/internal/stats"
)

// Metric kinds, as reported in dumps.
const (
	KindCounter   = "counter"
	KindGauge     = "gauge"
	KindHistogram = "histogram"
)

// Counter is a monotonically increasing event count. A nil *Counter is
// the disabled path: every method returns immediately, so call sites
// keep an unconditional handle and pay one predictable branch.
type Counter struct {
	v uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v++
}

// Add folds n events in.
func (c *Counter) Add(n uint64) {
	if c == nil {
		return
	}
	c.v += n
}

// Value reports the current count (0 for a nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v
}

// Gauge is a last-value metric. A nil *Gauge is the disabled path.
type Gauge struct {
	v   float64
	set bool
}

// Set records the current value.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.v = v
	g.set = true
}

// Value reports the last recorded value (0 when never set or nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Histogram is a distribution metric over a fixed-bin stats.Histogram.
// A nil *Histogram is the disabled path.
type Histogram struct {
	h *stats.Histogram
}

// Observe folds one observation in.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.h.Add(v)
}

// Snapshot exposes the underlying histogram (nil for a nil metric).
func (h *Histogram) Snapshot() *stats.Histogram {
	if h == nil {
		return nil
	}
	return h.h
}

// metric is one named registry entry.
type metric struct {
	name string
	kind string
	ctr  *Counter
	gau  *Gauge
	his  *Histogram
}

// Registry is a named collection of counters, gauges, and histograms.
// Lookups are get-or-create, so independent subsystems can share a
// metric by name. Dumps iterate in sorted-name order, so equal states
// always render equal bytes — the same determinism contract the rest
// of the simulator keeps.
type Registry struct {
	byName map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*metric)}
}

// lookup returns the entry for name, creating it with kind on first
// use. A name registered under a different kind panics: silent kind
// aliasing would corrupt dumps.
func (r *Registry) lookup(name, kind string) *metric {
	m := r.byName[name]
	if m == nil {
		m = &metric{name: name, kind: kind}
		r.byName[name] = m
		return m
	}
	if m.kind != kind {
		panic("obs: metric " + name + " registered as " + m.kind + ", requested as " + kind)
	}
	return m
}

// Counter returns the named counter, creating it on first use. A nil
// registry returns a nil (disabled) handle.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	m := r.lookup(name, KindCounter)
	if m.ctr == nil {
		m.ctr = &Counter{}
	}
	return m.ctr
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	m := r.lookup(name, KindGauge)
	if m.gau == nil {
		m.gau = &Gauge{}
	}
	return m.gau
}

// Histogram returns the named histogram, creating it on first use with
// the given bin geometry (later calls reuse the first geometry).
func (r *Registry) Histogram(name string, binWidth float64, bins int) *Histogram {
	if r == nil {
		return nil
	}
	m := r.lookup(name, KindHistogram)
	if m.his == nil {
		m.his = &Histogram{h: stats.NewHistogram(binWidth, bins)}
	}
	return m.his
}

// sorted returns the entries in name order (the deterministic dump
// order).
func (r *Registry) sorted() []*metric {
	names := make([]string, 0, len(r.byName))
	//simlint:allow maprange keys collected here are sorted before use
	for n := range r.byName {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*metric, len(names))
	for i, n := range names {
		out[i] = r.byName[n]
	}
	return out
}

// metricJSON is the dump schema of one metric.
type metricJSON struct {
	Name  string  `json:"name"`
	Kind  string  `json:"kind"`
	Value float64 `json:"value,omitempty"`
	Count uint64  `json:"count,omitempty"`
	Mean  float64 `json:"mean,omitempty"`
	P50   float64 `json:"p50,omitempty"`
	P95   float64 `json:"p95,omitempty"`
	Max   float64 `json:"max,omitempty"`
}

// WriteJSON dumps every metric, sorted by name, as a JSON document.
func (r *Registry) WriteJSON(w io.Writer) error {
	out := struct {
		Metrics []metricJSON `json:"metrics"`
	}{Metrics: []metricJSON{}}
	r.Visit(func(v MetricView) {
		j := metricJSON{Name: v.Name, Kind: v.Kind, Value: v.Value}
		if h := v.Hist; h != nil {
			j.Count, j.Mean, j.Max = h.Count(), h.Mean(), h.Max()
			j.P50, j.P95 = h.Percentile(0.50), h.Percentile(0.95)
		}
		out.Metrics = append(out.Metrics, j)
	})
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Table renders every metric, sorted by name, as a human table.
func (r *Registry) Table(title string) *stats.Table {
	t := stats.NewTable(title, "metric", "kind", "value", "count", "mean", "p95", "max")
	r.Visit(func(v MetricView) {
		switch h := v.Hist; {
		case h != nil:
			t.AddRow(v.Name, v.Kind, "", h.Count(), h.Mean(), h.Percentile(0.95), h.Max())
		case v.Kind == KindCounter:
			t.AddRow(v.Name, v.Kind, uint64(v.Value), "", "", "", "")
		default:
			t.AddRow(v.Name, v.Kind, v.Value, "", "", "", "")
		}
	})
	return t
}

// Len reports the number of registered metrics.
func (r *Registry) Len() int {
	if r == nil {
		return 0
	}
	return len(r.byName)
}

// MetricView is one metric as seen by Visit: name, kind, the scalar
// value for counters/gauges, and the underlying histogram for
// histogram metrics (nil otherwise). Callers must treat Hist as
// read-only.
type MetricView struct {
	Name  string
	Kind  string
	Value float64
	Hist  *stats.Histogram
}

// Visit calls fn once per registered metric in sorted-name order — the
// subscription surface for consumers (such as the cosimd observability
// plane) that periodically scrape the registry without knowing metric
// names up front. Deterministic order, read-only views, nil-safe.
func (r *Registry) Visit(fn func(MetricView)) {
	if r == nil {
		return
	}
	for _, m := range r.sorted() {
		v := MetricView{Name: m.name, Kind: m.kind}
		switch m.kind {
		case KindCounter:
			v.Value = float64(m.ctr.Value())
		case KindGauge:
			v.Value = m.gau.Value()
		case KindHistogram:
			v.Hist = m.his.Snapshot()
		}
		fn(v)
	}
}
