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

	p.Header("cosimd_workers", "gauge", "configured worker-pool size")
	p.Sample("cosimd_workers", nil, float64(g.Workers))
	p.Header("cosimd_workers_busy", "gauge", "workers currently running a slice")
	p.Sample("cosimd_workers_busy", nil, float64(busy))
	p.Header("cosimd_worker_busy_seconds_total", "counter", "cumulative wall time workers spent in slices")
	p.Sample("cosimd_worker_busy_seconds_total", nil, float64(busyNanos)/1e9)
	p.Header("cosimd_slices_total", "counter", "scheduling slices completed")
	p.Sample("cosimd_slices_total", nil, float64(slices))
	p.Header("cosimd_slice_cycles", "gauge", "scheduling slice length in simulated cycles")
	p.Sample("cosimd_slice_cycles", nil, float64(g.Slice))

	p.Header("cosimd_sessions", "gauge", "sessions by lifecycle state")
	for _, st := range []State{StateReady, StateRunning, StateDone, StateFailed} {
		p.Sample("cosimd_sessions", obsplane.L("state", string(st)), float64(g.ByState[st]))
	}
	p.Header("cosimd_sched_ready_depth", "gauge", "sessions queued for dispatch")
	p.Sample("cosimd_sched_ready_depth", nil, float64(readyDepth))
	p.Header("cosimd_sched_fairness_spread_cycles", "gauge", "worst observed cross-tenant simulated-cycle spread at steady state")
	p.Sample("cosimd_sched_fairness_spread_cycles", nil, float64(g.Fairness.MaxSpread))
	p.Header("cosimd_sched_fairness_samples_total", "counter", "steady-state fairness samples taken")
	p.Sample("cosimd_sched_fairness_samples_total", nil, float64(g.Fairness.Samples))

	p.Header("cosimd_resident_sessions", "gauge", "sessions counted against max-resident (may own worker pools)")
	p.Sample("cosimd_resident_sessions", nil, float64(g.Resident))
	p.Header("cosimd_warm_sessions", "gauge", "parked sessions: simulation held in memory, worker pools stopped")
	p.Sample("cosimd_warm_sessions", nil, float64(g.Warm))
	p.Header("cosimd_evictions_total", "counter", "sessions evicted from the resident set (every one a park)")
	p.Sample("cosimd_evictions_total", nil, float64(g.Evictions))
	p.Header("cosimd_restores_total", "counter", "evicted sessions faulted back in")
	p.Sample("cosimd_restores_total", nil, float64(g.Restores))
	p.Header("cosimd_warm_restores_total", "counter", "restores served by adopting a parked session as it is")
	p.Sample("cosimd_warm_restores_total", nil, float64(g.WarmRestores))
	p.Header("cosimd_spills_total", "counter", "parked sessions written to checkpoint files and dropped")
	p.Sample("cosimd_spills_total", nil, float64(g.Spills))

	p.Header("cosimd_cache_hits_total", "counter", "submissions served from the digest-keyed result cache")
	p.Sample("cosimd_cache_hits_total", nil, float64(g.CacheHits))
	p.Header("cosimd_cache_misses_total", "counter", "submissions that required simulation")
	p.Sample("cosimd_cache_misses_total", nil, float64(g.CacheMiss))

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

	p.Header("cosimd_events_subscribers", "gauge", "live /events subscriptions")
	p.Sample("cosimd_events_subscribers", nil, float64(g.Obs.Subscribers))
	p.Header("cosimd_events_published_total", "counter", "observability events published")
	p.Sample("cosimd_events_published_total", nil, float64(g.Obs.Published))
	p.Header("cosimd_events_dropped_total", "counter", "events lost to slow subscribers (drop-and-count)")
	p.Sample("cosimd_events_dropped_total", nil, float64(g.Obs.Dropped))
	p.Header("cosimd_flight_records_total", "counter", "entries recorded into flight rings")
	p.Sample("cosimd_flight_records_total", nil, float64(g.Obs.FlightRecords))

	p.Header("cosimd_phase_wall_seconds", "histogram", "wall cost per server phase (slice, build, park_warm, spill, faultin_disk)")
	for _, name := range obsplane.SortedKeys(phases) {
		phases[name].WriteProm(p, "cosimd_phase_wall_seconds", obsplane.L("phase", name))
	}

	return p.Err()
}

// promContentType is the exposition content type for /metrics.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"
