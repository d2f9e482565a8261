package core

import (
	"time"

	"repro/internal/calib"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
)

// RetuneObservable is implemented by backends and oracles whose
// reciprocal pairing can report retunes (Paired, the calibrated
// memory oracle). SetObserver wires a sink into every
// registered component that implements it.
type RetuneObservable interface {
	SetRetuneSink(calib.RetuneSink)
}

// SetRetuneSink forwards to the wrapped oracle when it can report.
func (m memComponent) SetRetuneSink(s calib.RetuneSink) {
	if ro, ok := m.port.Oracle.(RetuneObservable); ok {
		ro.SetRetuneSink(s)
	}
}

// obsHandles is the pre-resolved instrumentation state of one observed
// Cosim: every metric handle and track name the hot path needs, looked
// up once in SetObserver so Step pays pointer calls, not map lookups.
// The whole struct is reached through one nil check (c.obsH).
type obsHandles struct {
	o    *obs.Observer
	wall bool

	// names are the components' track names, in registry order.
	names []string

	quanta    *obs.Counter
	cycles    *obs.Counter
	delivered *obs.Counter
	memDone   *obs.Counter
	skew      *obs.Histogram
	inflight  *obs.Gauge
	snapBytes *obs.Gauge

	sysWall *obs.Histogram
	advWall []*obs.Histogram

	// flits samples switching activity when the backend exposes it
	// (detailed cycle-level networks) and a metric or a sample
	// subscriber reads it; nil otherwise.
	flits      func() uint64
	flitsGauge *obs.Gauge

	// activity samples the gating layer's work accounting when the
	// backend exposes it (the detailed backend, and Paired for its
	// detailed side) and it is read; nil otherwise.
	activity   func() noc.ActivityStats
	actStepped *obs.Gauge
	actSkipped *obs.Gauge
	actOcc     *obs.Gauge
	actPool    *obs.Gauge

	// shards samples the shard partition's accounting when the backend
	// exposes it, the network has more than one shard and it is read;
	// nil otherwise (a one-shard run's registry carries no shard
	// gauges). The barrier-share gauge derives from wall-clock timers,
	// so it registers only on wall-enabled observers — the
	// deterministic registry must stay byte-identical across hosts.
	shards       func() noc.ShardStats
	shardCount   *obs.Gauge
	shardActive  *obs.Gauge
	shardBdry    *obs.Gauge
	shardBarrier *obs.Gauge
}

// flitSwitcher is the optional switching-activity surface of a
// backend (satisfied by the cycle-level network, and by Paired for its
// detailed side).
type flitSwitcher interface{ FlitsSwitched() uint64 }

// activityReporter is the optional activity-gating telemetry surface
// of a backend (satisfied by the cycle-level network, and by Paired for
// its detailed side).
type activityReporter interface{ ActivityStats() noc.ActivityStats }

// shardReporter is the optional sharded-stepping telemetry surface of
// a backend (satisfied by the cycle-level network).
type shardReporter interface{ ShardStats() noc.ShardStats }

// wallHistBins sizes the host-time histograms: 10us bins up to 10ms.
const (
	wallHistBin  = 10e3
	wallHistBins = 1024
)

// SetObserver threads an observer through the co-simulation: the
// coordinator itself (span, sample and end-of-quantum records,
// throughput counters, skew and queue-depth metrics), the system's
// clamp sites, and the retune sink of every component with a
// reciprocal pairing. Call it after New, after the observer's
// subscriptions and before the first Step; pass nil to detach.
// Observation never feeds back: enabling this changes no fingerprints
// and no snapshot bytes (asserted by determinism tests).
func (c *Cosim) SetObserver(o *obs.Observer) {
	if o == nil {
		c.obsH = nil
		return
	}
	h := &obsHandles{
		o:         o,
		wall:      o.Wall(),
		quanta:    o.Counter("cosim.quanta"),
		cycles:    o.Counter("cosim.cycles"),
		delivered: o.Counter("net.delivered"),
		memDone:   o.Counter("mem.completions"),
		skew:      o.Histogram("net.delivery_skew_cycles", 1, 512),
		inflight:  o.Gauge("net.inflight"),
		snapBytes: o.Gauge("snapshot.bytes"),
	}
	if h.wall {
		h.sysWall = o.Histogram("wall.fullsys_ns", wallHistBin, wallHistBins)
	}
	accounting := o.Metrics() != nil || o.Wants(obs.SampleRecord)
	if fs, ok := c.Net.(flitSwitcher); ok && accounting {
		h.flits = fs.FlitsSwitched
		h.flitsGauge = o.Gauge("net.flits_switched")
	}
	if ar, ok := c.Net.(activityReporter); ok && accounting {
		h.activity = ar.ActivityStats
		h.actStepped = o.Gauge("net.cycles_stepped")
		h.actSkipped = o.Gauge("net.cycles_skipped")
		h.actOcc = o.Gauge("net.active_occupancy")
		h.actPool = o.Gauge("net.pool_hit_rate")
	}
	if sr, ok := c.Net.(shardReporter); ok && accounting && sr.ShardStats().Shards > 1 {
		h.shards = sr.ShardStats
		h.shardCount = o.Gauge("net.shards")
		h.shardActive = o.Gauge("net.shard_active_mean")
		h.shardBdry = o.Gauge("net.shard_boundary_wakes")
		if h.wall {
			// Derived from host timers; deterministic registries never
			// see it (same discipline as the wall.* histograms).
			h.shardBarrier = o.Gauge("net.shard_barrier_share")
		}
	}
	for _, comp := range c.comps {
		h.names = append(h.names, comp.Name())
		if h.wall {
			h.advWall = append(h.advWall, o.Histogram("wall.advance_ns/"+comp.Name(), wallHistBin, wallHistBins))
		} else {
			h.advWall = append(h.advWall, nil)
		}
		if ro, ok := comp.(RetuneObservable); ok {
			ro.SetRetuneSink(o.RetuneSink(comp.Name()))
		}
	}
	c.Sys.SetObserver(o)
	c.obsH = h
}

// ObserveSnapshotBytes records the encoded size of a snapshot just
// taken (the checkpoint layer calls it). A detached Cosim ignores it.
func (c *Cosim) ObserveSnapshotBytes(n int) {
	if c.obsH == nil {
		return
	}
	c.obsH.snapBytes.Set(float64(n))
}

// spans reports whether anyone subscribes to span records.
func (h *obsHandles) spans() bool { return h.o.Wants(obs.SpanRecord) }

// span records one leg of a quantum (the full-system tick, or one
// component's advance) on a track: its host time into hist when wall
// timing is on, and a span record when someone subscribes to spans.
func (h *obsHandles) span(track, name string, hist *obs.Histogram, start, end sim.Cycle, wall time.Duration) {
	if h.wall {
		hist.Observe(float64(wall.Nanoseconds()))
	}
	if h.spans() {
		h.o.Emit(obs.Record{Kind: obs.SpanRecord, Track: track, Name: name, Start: start, End: end, Wall: wall})
	}
}

// endQuantum folds one quantum's totals into the metrics, emits the
// counter samples, and ends the quantum with its record. The network's
// accounting is read only for a metric or a subscriber that uses it.
func (h *obsHandles) endQuantum(c *Cosim, end sim.Cycle, memDone, netDone int) {
	h.quanta.Inc()
	h.cycles.Add(uint64(c.Quantum))
	h.memDone.Add(uint64(memDone))
	h.delivered.Add(uint64(netDone))
	samples, quantum := h.o.Wants(obs.SampleRecord), h.o.Wants(obs.QuantumRecord)
	if h.inflight == nil && !samples && !quantum {
		return
	}
	inFlight := float64(c.Net.InFlight())
	h.inflight.Set(inFlight)
	h.sample(samples, "net.inflight", end, inFlight)
	h.sample(samples, "net.delivered", end, float64(c.delivered))
	if h.flits != nil {
		f := float64(h.flits())
		h.flitsGauge.Set(f)
		h.sample(samples, "net.flits_switched", end, f)
	}
	if h.activity != nil {
		a := h.activity()
		h.actStepped.Set(float64(a.Stepped))
		h.actSkipped.Set(float64(a.Skipped))
		h.actOcc.Set(a.Occupancy())
		h.actPool.Set(a.PoolHitRate())
		h.sample(samples, "net.cycles_skipped", end, float64(a.Skipped))
	}
	if h.shards != nil {
		s := h.shards()
		h.shardCount.Set(float64(s.Shards))
		h.shardActive.Set(s.MeanActiveShards())
		h.shardBdry.Set(float64(s.BoundaryWakes))
		h.sample(samples, "net.shard_boundary_wakes", end, float64(s.BoundaryWakes))
		if h.shardBarrier != nil {
			h.shardBarrier.Set(s.BarrierShare())
		}
	}
	if quantum {
		h.o.Emit(obs.Record{Kind: obs.QuantumRecord, Start: c.cycle, End: end, Value: inFlight})
	}
}

// sample emits one counter sample record, if samples are wanted.
func (h *obsHandles) sample(wanted bool, name string, at sim.Cycle, v float64) {
	if wanted {
		h.o.Emit(obs.Record{Kind: obs.SampleRecord, Name: name, Start: at, Value: v})
	}
}
