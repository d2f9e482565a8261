package cosimd

import (
	"io"

	"repro/internal/obsplane"
)

// WriteProm renders the server-wide metrics page in Prometheus text
// exposition format (stdlib only; see internal/obsplane's PromWriter).
// The accounting is Stats(), the same values /api/v1/stats serves; the
// ready-queue depth and the worker telemetry are copied under their own
// locks. Everything is written unlocked, so a slow scrape reader never
// holds a lock.
func (s *Server) WriteProm(w io.Writer) error {
	g := s.Stats()
	s.mu.Lock()
	readyDepth := len(s.sched.ready)
	s.mu.Unlock()

	s.tel.mu.Lock()
	busy := s.tel.busy
	slices := s.tel.slices
	busyNanos := s.tel.busyNanos
	phases := make(map[string]*obsplane.WallHist, len(s.tel.phases))
	for name, h := range s.tel.phases {
		phases[name] = h
	}
	s.tel.mu.Unlock()

	p := obsplane.NewPromWriter(w)
	// one writes a metric with a single unlabelled sample.
	one := func(name, typ, help string, v float64) {
		p.Header(name, typ, help)
		p.Sample(name, nil, v)
	}

	one("cosimd_workers", "gauge", "configured worker-pool size", float64(g.Workers))
	one("cosimd_workers_busy", "gauge", "workers currently running a slice", float64(busy))
	one("cosimd_worker_busy_seconds_total", "counter", "cumulative wall time workers spent in slices", float64(busyNanos)/1e9)
	one("cosimd_slices_total", "counter", "scheduling slices completed", float64(slices))
	one("cosimd_slice_cycles", "gauge", "scheduling slice length in simulated cycles", float64(g.Slice))

	p.Header("cosimd_sessions", "gauge", "sessions by lifecycle state")
	for _, st := range []State{StateReady, StateRunning, StateDone, StateFailed} {
		p.Sample("cosimd_sessions", obsplane.L("state", string(st)), float64(g.ByState[st]))
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

	p.Header("cosimd_tenant_simulated_cycles_total", "counter", "simulated cycles consumed per tenant (the fair-share currency)")
	for _, t := range g.Tenants {
		p.Sample("cosimd_tenant_simulated_cycles_total", obsplane.L("tenant", t.Tenant), float64(t.Cycles))
	}
	p.Header("cosimd_tenant_sessions", "gauge", "per-tenant sessions by liveness")
	for _, t := range g.Tenants {
		p.Sample("cosimd_tenant_sessions",
			obsplane.Labels{{"tenant", t.Tenant}, {"phase", "active"}}, float64(t.Active))
		p.Sample("cosimd_tenant_sessions",
			obsplane.Labels{{"tenant", t.Tenant}, {"phase", "finished"}}, float64(t.Finished))
	}

	one("cosimd_events_subscribers", "gauge", "live /events subscriptions", float64(g.Obs.Subscribers))
	one("cosimd_events_published_total", "counter", "observability events published", float64(g.Obs.Published))
	one("cosimd_events_dropped_total", "counter", "events lost to slow subscribers (drop-and-count)", float64(g.Obs.Dropped))
	one("cosimd_flight_records_total", "counter", "entries recorded into flight rings", float64(g.Obs.FlightRecords))

	p.Header("cosimd_phase_wall_seconds", "histogram", "wall cost per server phase (slice, build, park_warm, spill, faultin_disk)")
	for _, name := range obsplane.SortedKeys(phases) {
		phases[name].WriteProm(p, "cosimd_phase_wall_seconds", obsplane.L("phase", name))
	}

	return p.Err()
}

// promContentType is the exposition content type for /metrics.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"
