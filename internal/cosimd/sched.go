package cosimd

import "sort"

// Sched is the fair-share scheduler: it allocates worker slices by
// *simulated* cycles consumed per tenant, not wall time. The tenant
// that has simulated the least is served first, so a tenant whose
// sessions are expensive per cycle (a saturated mesh grinding through
// detailed router state) cannot crowd out one whose sessions are cheap
// (idle-heavy meshes fast-forwarding through drained quanta): both
// advance through virtual time at the same rate, which is the only
// rate a simulation service can meaningfully promise.
//
// Priority aging is the escape valve on top: every scheduler tick an
// entry spends waiting earns it a credit (in cycles) subtracted from
// its tenant's score, so even a tenant far ahead in consumed cycles is
// eventually served and no session waits unboundedly.
//
// The scheduler is deliberately not concurrency-safe: the server
// drives it under its own lock. Pick scans the ready list linearly —
// scores drift every tick (tenant totals grow, waiting credit
// accrues), so a static heap key would go stale; at the thousands of
// sessions a pool serves, the scan is cheap (benchmarked in
// BenchmarkCosimdSchedPick).
type Sched struct {
	aging   uint64
	tick    uint64
	tenants map[string]*tenantAcct
	names   []string // deterministic tenant iteration order
	ready   []*Entry

	fairSamples uint64
	fairSpread  uint64
}

type tenantAcct struct {
	name   string
	cycles uint64
	// live counts entries not yet retired (ready or running):
	// the tenant is "active" while live > 0.
	live int
	done int
}

// Entry is one schedulable session from the scheduler's point of view.
// Payload is opaque to the scheduler (the server stores its session).
type Entry struct {
	Payload any

	tenant     *tenantAcct
	seq        uint64
	readySince uint64
	readyIdx   int // index in Sched.ready, -1 when not queued
}

// NewSched builds a scheduler. aging is the per-tick waiting credit in
// simulated cycles (0 disables aging).
func NewSched(aging uint64) *Sched {
	return &Sched{aging: aging, tenants: map[string]*tenantAcct{}}
}

// Add registers a new entry under a tenant. The entry starts
// unqueued; call Ready to make it schedulable.
func (sc *Sched) Add(tenant string, seq uint64, payload any) *Entry {
	t := sc.tenants[tenant]
	if t == nil {
		t = &tenantAcct{name: tenant}
		sc.tenants[tenant] = t
		sc.names = append(sc.names, tenant)
		sort.Strings(sc.names)
	}
	t.live++
	return &Entry{Payload: payload, tenant: t, seq: seq, readyIdx: -1}
}

// Ready queues an entry for dispatch.
func (sc *Sched) Ready(e *Entry) {
	if e.readyIdx >= 0 {
		return
	}
	e.readySince = sc.tick
	e.readyIdx = len(sc.ready)
	sc.ready = append(sc.ready, e)
}

// Block removes a queued entry from the ready list without retiring it
// (a dispatch, or a spill in progress). A later Ready re-queues it.
func (sc *Sched) Block(e *Entry) {
	if e.readyIdx < 0 {
		return
	}
	last := len(sc.ready) - 1
	moved := sc.ready[last]
	sc.ready[e.readyIdx] = moved
	moved.readyIdx = e.readyIdx
	sc.ready = sc.ready[:last]
	e.readyIdx = -1
}

// score is the entry's effective priority: tenant cycles minus the
// aging credit, lower is better.
func (sc *Sched) score(e *Entry) uint64 {
	credit := sc.aging * (sc.tick - e.readySince)
	if credit > e.tenant.cycles {
		return 0
	}
	return e.tenant.cycles - credit
}

// Pick removes and returns the entry with the lowest effective score
// (ties broken by submit order), or nil when nothing is ready. Each
// Pick advances the scheduler tick — the aging clock counts dispatch
// opportunities, not wall time, so the scheduler stays deterministic
// for a fixed dispatch interleaving.
func (sc *Sched) Pick() *Entry {
	if len(sc.ready) == 0 {
		return nil
	}
	sc.tick++
	best := sc.ready[0]
	bestScore := sc.score(best)
	for _, e := range sc.ready[1:] {
		s := sc.score(e)
		if s < bestScore || (s == bestScore && e.seq < best.seq) {
			best, bestScore = e, s
		}
	}
	sc.Block(best)
	sc.sampleFairness()
	return best
}

// Account charges consumed simulated cycles to an entry's tenant
// (after a slice) without retiring it.
func (sc *Sched) Account(e *Entry, cycles uint64) {
	e.tenant.cycles += cycles
}

// Retire finishes an entry: charges its final slice and removes it
// from its tenant's live population.
func (sc *Sched) Retire(e *Entry, cycles uint64) {
	sc.Block(e)
	e.tenant.cycles += cycles
	e.tenant.live--
	e.tenant.done++
}

// FairnessReport summarizes observed steady-state fair-share skew.
// Spread samples are taken at dispatch time, but only when every
// tenant with live sessions has consumed at least one slice's worth of
// cycles — i.e. the pool is in steady state, not ramping a new tenant
// up from zero.
type FairnessReport struct {
	// Samples is the number of steady-state dispatches measured.
	Samples uint64 `json:"samples"`
	// MaxSpread is the worst observed max-min gap in per-tenant
	// simulated cycles across those samples.
	MaxSpread uint64 `json:"max_spread_cycles"`
}

// sampleFairness records the cross-tenant consumption spread when the
// pool is multi-tenant and warmed up.
func (sc *Sched) sampleFairness() {
	var minC, maxC uint64
	active := 0
	for _, name := range sc.names {
		t := sc.tenants[name]
		if t.live == 0 {
			continue
		}
		if t.cycles == 0 {
			return // a tenant is still ramping up from zero
		}
		if active == 0 || t.cycles < minC {
			minC = t.cycles
		}
		if active == 0 || t.cycles > maxC {
			maxC = t.cycles
		}
		active++
	}
	if active < 2 {
		return
	}
	sc.fairSamples++
	if spread := maxC - minC; spread > sc.fairSpread {
		sc.fairSpread = spread
	}
}

// Fairness returns the steady-state skew observed so far.
func (sc *Sched) Fairness() FairnessReport {
	return FairnessReport{Samples: sc.fairSamples, MaxSpread: sc.fairSpread}
}

// Tenants returns per-tenant accounting in deterministic name order.
func (sc *Sched) Tenants() []TenantStats {
	out := make([]TenantStats, 0, len(sc.names))
	for _, name := range sc.names {
		t := sc.tenants[name]
		out = append(out, TenantStats{
			Tenant: t.name, Cycles: t.cycles, Active: t.live, Finished: t.done,
		})
	}
	return out
}
