package cosimd

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"sort"
	"strconv"
	"strings"
	"time"
)

// WriteProm renders the server-wide metrics page in Prometheus text
// exposition format 0.0.4. The accounting is Stats(), the same values
// /api/v1/stats serves; the ready-queue depth and the worker telemetry
// are copied under their own locks. The page is written to w only
// after every lock is released, so a slow scrape reader never holds
// one.
func (s *Server) WriteProm(w io.Writer) error {
	g := s.Stats()
	s.mu.Lock()
	readyDepth := len(s.sched.ready)
	s.mu.Unlock()

	s.tel.mu.Lock()
	busy := s.tel.busy
	slices := s.tel.slices
	busyNanos := s.tel.busyNanos
	phases := maps.Clone(s.tel.phases)
	s.tel.mu.Unlock()

	var p promPage
	// one writes a metric with a single unlabelled sample.
	one := func(name, typ, help string, v float64) {
		p.family(name, typ, help)
		p.sample(name, v)
	}

	one("cosimd_workers", "gauge", "configured worker-pool size", float64(g.Workers))
	one("cosimd_workers_busy", "gauge", "workers currently running a slice", float64(busy))
	one("cosimd_worker_busy_seconds_total", "counter", "cumulative wall time workers spent in slices", float64(busyNanos)/1e9)
	one("cosimd_slices_total", "counter", "scheduling slices completed", float64(slices))
	one("cosimd_slice_cycles", "gauge", "scheduling slice length in simulated cycles", float64(g.Slice))

	p.family("cosimd_sessions", "gauge", "sessions by lifecycle state")
	for _, st := range []State{StateReady, StateRunning, StateDone, StateFailed} {
		p.sample("cosimd_sessions", float64(g.ByState[st]), "state", string(st))
	}
	one("cosimd_sched_ready_depth", "gauge", "sessions queued for dispatch", float64(readyDepth))
	one("cosimd_sched_fairness_spread_cycles", "gauge", "worst observed cross-tenant simulated-cycle spread at steady state", float64(g.Fairness.MaxSpread))
	one("cosimd_sched_fairness_samples_total", "counter", "steady-state fairness samples taken", float64(g.Fairness.Samples))

	one("cosimd_resident_sessions", "gauge", "sessions counted against max-resident (may own worker pools)", float64(g.Resident))
	one("cosimd_warm_sessions", "gauge", "parked sessions: simulation held in memory, worker pools stopped", float64(g.Warm))
	one("cosimd_evictions_total", "counter", "sessions evicted from the resident set (every one a park)", float64(g.Evictions))
	one("cosimd_restores_total", "counter", "evicted sessions faulted back in", float64(g.Restores))
	one("cosimd_warm_restores_total", "counter", "restores served by adopting a parked session as it is", float64(g.WarmRestores))
	one("cosimd_spills_total", "counter", "parked sessions written to checkpoint files and dropped", float64(g.Spills))

	one("cosimd_cache_hits_total", "counter", "submissions served from the digest-keyed result cache", float64(g.CacheHits))
	one("cosimd_cache_misses_total", "counter", "submissions that required simulation", float64(g.CacheMiss))

	p.family("cosimd_tenant_simulated_cycles_total", "counter", "simulated cycles consumed per tenant (the fair-share currency)")
	for _, t := range g.Tenants {
		p.sample("cosimd_tenant_simulated_cycles_total", float64(t.Cycles), "tenant", t.Tenant)
	}
	p.family("cosimd_tenant_sessions", "gauge", "per-tenant sessions by liveness")
	for _, t := range g.Tenants {
		p.sample("cosimd_tenant_sessions", float64(t.Active), "tenant", t.Tenant, "phase", "active")
		p.sample("cosimd_tenant_sessions", float64(t.Finished), "tenant", t.Tenant, "phase", "finished")
	}

	one("cosimd_events_subscribers", "gauge", "live /events subscriptions", float64(g.Obs.Subscribers))
	one("cosimd_events_published_total", "counter", "observability events published", float64(g.Obs.Published))
	one("cosimd_events_dropped_total", "counter", "events lost to slow subscribers (drop-and-count)", float64(g.Obs.Dropped))
	one("cosimd_flight_records_total", "counter", "entries recorded into flight rings", float64(g.Obs.FlightRecords))

	p.family("cosimd_phase_wall_seconds", "histogram", "wall cost per server phase (slice, build, park_warm, spill, faultin_disk)")
	names := make([]string, 0, len(phases))
	for name := range phases {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		phases[name].writeProm(&p, "cosimd_phase_wall_seconds", name)
	}

	_, err := w.Write(p.Bytes())
	return err
}

// promContentType is the exposition content type for /metrics.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// promPage accumulates an exposition page.
type promPage struct{ bytes.Buffer }

// family writes a metric family's HELP and TYPE lines. help is a
// program constant, free of the backslashes and newlines the format
// would need escaped.
func (p *promPage) family(name, typ, help string) {
	fmt.Fprintf(p, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// labelEscaper escapes a label value; tenant names come from clients.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// sample writes one sample line. labels alternate label names and
// values, in the order they are written.
func (p *promPage) sample(name string, v float64, labels ...string) {
	p.WriteString(name)
	sep := "{"
	for i := 0; i < len(labels); i += 2 {
		p.WriteString(sep + labels[i] + `="` + labelEscaper.Replace(labels[i+1]) + `"`)
		sep = ","
	}
	if len(labels) > 0 {
		p.WriteByte('}')
	}
	p.WriteString(" " + formatFloat(v) + "\n")
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// wallBuckets is the wallHist shape: upper bounds in seconds from
// 1 µs, ×4 per bucket (1 µs … ~16.8 s), then +Inf. Thirteen finite
// buckets span every phase cost the server sees — sub-ms parks through
// multi-second drains — at a resolution good enough to tell tiers
// apart.
const wallBuckets = 13

// wallHist is one phase's wall-time histogram, shaped for Prometheus
// histogram exposition. It has no lock: telemetry.mu guards it.
type wallHist struct {
	counts [wallBuckets]uint64
	count  uint64
	sumNs  int64
}

// observe records one wall-time cost.
func (h *wallHist) observe(d time.Duration) {
	sec := d.Seconds()
	for i, bound := 0, 1e-6; i < wallBuckets; i, bound = i+1, bound*4 {
		if sec <= bound {
			h.counts[i]++
			break
		}
	}
	h.count++
	h.sumNs += d.Nanoseconds()
}

// writeProm writes the histogram's cumulative `_bucket` samples, its
// `_sum` in seconds and its `_count`, labelled with the phase.
func (h wallHist) writeProm(p *promPage, name, phase string) {
	cum := uint64(0)
	for i, bound := 0, 1e-6; i < wallBuckets; i, bound = i+1, bound*4 {
		cum += h.counts[i]
		p.sample(name+"_bucket", float64(cum), "phase", phase, "le", formatFloat(bound))
	}
	p.sample(name+"_bucket", float64(h.count), "phase", phase, "le", "+Inf")
	p.sample(name+"_sum", float64(h.sumNs)/1e9, "phase", phase)
	p.sample(name+"_count", float64(h.count), "phase", phase)
}
