package cosimd

import (
	"fmt"

	"repro/internal/core"
)

// SubmitRequest describes one co-simulation run a client submits to
// the server. Zero values take the documented defaults, so the minimal
// useful request is `{}`. The request (after normalization, minus the
// tenant and observability knobs) determines the config digest: two
// requests with equal digests are the same deterministic run, which is
// what makes the result cache and checkpoint fault-in sound.
type SubmitRequest struct {
	// Tenant names the submitting tenant for fair-share scheduling
	// (default "default"). The tenant is accounting identity only — it
	// is excluded from the config digest, so identical configs dedupe
	// across tenants.
	Tenant string `json:"tenant,omitempty"`
	// Workload is the kernel name (fft|lu|barnes|ocean|radix|water|
	// raytrace|canneal; default fft).
	Workload string `json:"workload,omitempty"`
	// Tiles is the number of tiles/cores (default 16).
	Tiles int `json:"tiles,omitempty"`
	// Ops is the per-core memory-operation budget (default 250).
	Ops int `json:"ops,omitempty"`
	// Seed keys the workload generator (default 42).
	Seed uint64 `json:"seed,omitempty"`
	// Mode is the network abstraction (default "reciprocal").
	Mode string `json:"mode,omitempty"`
	// Quantum is the synchronization interval (default: the target
	// machine's default; forced to 1 by the modes that require it).
	Quantum int `json:"quantum,omitempty"`
	// Limit bounds the run in simulated cycles (default 50,000,000).
	Limit uint64 `json:"limit,omitempty"`
	// MemModel selects the memory oracle (fixed|ddr|abstract|
	// calibrated; default fixed).
	MemModel string `json:"mem,omitempty"`
	// Router selects the detailed router architecture (vc|deflect).
	Router string `json:"router,omitempty"`
	// Routing selects the mesh routing function (xy|yx|oddeven).
	Routing string `json:"routing,omitempty"`
	// Torus selects wraparound links.
	Torus bool `json:"torus,omitempty"`
	// Metrics arms the session's obs metrics registry; snapshots are
	// served from /metrics. Observability is proven zero-perturbation,
	// so this knob is excluded from the config digest.
	Metrics bool `json:"metrics,omitempty"`
	// NocWorkers shards the detailed NoC sweep across this many workers
	// (<=1: one shard), and keeps doing so across park/adopt.
	// Runs are proven bit-identical for every worker count and their
	// checkpoints interchange, so like Metrics this is a host-speed knob
	// excluded from the config digest: requests differing only in
	// NocWorkers dedupe to one cached result.
	NocWorkers int `json:"noc_workers,omitempty"`
}

// Normalize fills defaulted fields in place. The server normalizes
// before digesting, so `{}` and an explicit spelled-out default config
// are the same cache key.
func (r *SubmitRequest) Normalize() {
	if r.Tenant == "" {
		r.Tenant = "default"
	}
	if r.Workload == "" {
		r.Workload = "fft"
	}
	if r.Tiles == 0 {
		r.Tiles = 16
	}
	if r.Ops == 0 {
		r.Ops = 250
	}
	if r.Seed == 0 {
		r.Seed = 42
	}
	if r.Mode == "" {
		r.Mode = "reciprocal"
	}
	if r.Limit == 0 {
		r.Limit = 50_000_000
	}
}

// State is a session's lifecycle phase.
type State string

// Session states. A session is runnable in StateReady whether or not
// it is resident: eviction drops the in-memory simulation, not the
// session's place in the scheduler.
const (
	StateReady   State = "ready"   // runnable, waiting for a worker
	StateRunning State = "running" // a worker is stepping a slice
	StateDone    State = "done"    // result available
	StateFailed  State = "failed"  // build/restore error; see Error
)

// SessionStatus is the external view of one session.
type SessionStatus struct {
	ID     string `json:"id"`
	Tenant string `json:"tenant"`
	State  State  `json:"state"`
	// Digest is the config digest in hex — equal digests mean equal
	// deterministic runs.
	Digest string `json:"digest"`
	// Cycle is the session's current simulated cycle; Limit is its
	// cycle budget.
	Cycle uint64 `json:"cycle"`
	Limit uint64 `json:"limit"`
	// Cycles is the number of simulated cycles this session consumed
	// on a worker. A cache-served session reports 0: the whole point
	// of digest-keyed results is that a repeat submission burns no
	// simulated cycles.
	Cycles uint64 `json:"cycles"`
	// Retired is the count of retired core operations so far.
	Retired uint64 `json:"retired"`
	// Resident reports whether the session counts against
	// max-resident (false once parked or spilled, or after completion).
	Resident bool `json:"resident"`
	// Evictions and Restores count trips out of and back into the
	// resident set, through either tier.
	Evictions int `json:"evictions"`
	Restores  int `json:"restores"`
	// Cached reports the result was served from the digest-keyed cache.
	Cached bool `json:"cached"`
	// Finished/Error are set once the session reaches a final state.
	Finished bool   `json:"finished"`
	Error    string `json:"error,omitempty"`
}

// ResultEnvelope is the completed-run payload. It deliberately carries
// no session identity: the same digest always yields byte-identical
// envelope bytes, which is the cache's contract (asserted by tests).
type ResultEnvelope struct {
	// Digest is the config digest in hex.
	Digest string `json:"digest"`
	// Fingerprint summarizes every externally observable outcome of
	// the run bit-exactly (floats in %x); evict+resume and cache hits
	// are proven against it.
	Fingerprint string `json:"fingerprint"`
	// Result is the co-simulation summary. SysWall/NetWall measure the
	// original run's host time and are reproduced verbatim on cache
	// hits.
	Result core.Result `json:"result"`
}

// SweepRequest expands a base request over explicit axes — the
// server-driven form of a design-space sweep. Empty axes keep the base
// value; non-empty axes take a cartesian product in the given order.
type SweepRequest struct {
	Base      SubmitRequest `json:"base"`
	Workloads []string      `json:"workloads,omitempty"`
	Modes     []string      `json:"modes,omitempty"`
	Seeds     []uint64      `json:"seeds,omitempty"`
	Quanta    []int         `json:"quanta,omitempty"`
}

// Expand returns the sweep's individual submit requests.
func (sw SweepRequest) Expand() []SubmitRequest {
	one := func(vals int) int {
		if vals == 0 {
			return 1
		}
		return vals
	}
	var out []SubmitRequest
	for wi := 0; wi < one(len(sw.Workloads)); wi++ {
		for mi := 0; mi < one(len(sw.Modes)); mi++ {
			for si := 0; si < one(len(sw.Seeds)); si++ {
				for qi := 0; qi < one(len(sw.Quanta)); qi++ {
					r := sw.Base
					if len(sw.Workloads) > 0 {
						r.Workload = sw.Workloads[wi]
					}
					if len(sw.Modes) > 0 {
						r.Mode = sw.Modes[mi]
					}
					if len(sw.Seeds) > 0 {
						r.Seed = sw.Seeds[si]
					}
					if len(sw.Quanta) > 0 {
						r.Quantum = sw.Quanta[qi]
					}
					out = append(out, r)
				}
			}
		}
	}
	return out
}

// SweepReply lists the sessions a sweep created.
type SweepReply struct {
	IDs    []string `json:"ids"`
	Cached int      `json:"cached"`
}

// TenantStats is one tenant's fair-share accounting.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Cycles is the tenant's total simulated cycles consumed.
	Cycles uint64 `json:"cycles"`
	// Sessions counts the tenant's sessions by liveness.
	Active   int `json:"active"`
	Finished int `json:"finished"`
}

// ServerStats is the /api/v1/stats payload.
type ServerStats struct {
	Sessions int           `json:"sessions"`
	ByState  map[State]int `json:"by_state"`
	Resident int           `json:"resident"`
	// Warm counts evicted sessions parked in the in-memory warm tier
	// (simulation held, worker pools stopped, no checkpoint file).
	Warm      int    `json:"warm"`
	Workers   int    `json:"workers"`
	Slice     uint64 `json:"slice_cycles"`
	Evictions uint64 `json:"evictions"`
	Restores  uint64 `json:"restores"`
	// WarmRestores counts the subset of Restores served by adopting a
	// parked session (no rebuild, no decode); Spills counts parked
	// sessions written to checkpoint files under memory pressure.
	WarmRestores uint64         `json:"warm_restores"`
	Spills       uint64         `json:"spills"`
	CacheHits    uint64         `json:"cache_hits"`
	CacheMiss    uint64         `json:"cache_misses"`
	Tenants      []TenantStats  `json:"tenants"`
	Fairness     FairnessReport `json:"fairness"`
	Obs          ObsStats       `json:"obs"`
}

// ObsStats aggregates the observability plane across all sessions.
type ObsStats struct {
	// Subscribers counts live /events subscriptions; Published and
	// Dropped total the events accepted and the subscriber-queue
	// overflows (the drop-and-count slow-consumer policy).
	Subscribers int    `json:"subscribers"`
	Published   uint64 `json:"events_published"`
	Dropped     uint64 `json:"events_dropped"`
	// FlightRecords totals entries ever recorded into flight rings.
	FlightRecords uint64 `json:"flight_records"`
}

// Fingerprint summarizes every externally observable outcome of a
// finished run, floats formatted %x for bit-exact comparison (the same
// shape as internal/core's determinism fingerprint). Host wall time is
// deliberately excluded: the fingerprint must be identical across
// uninterrupted, evicted-and-resumed, and cache-served executions of
// one digest.
func Fingerprint(cs *core.Cosim, res core.Result) string {
	hits, misses := cs.Sys.L1Stats()
	return fmt.Sprintf(
		"exec=%d retired=%d pkts=%d lat=%x netlat=%x p95=%x hops=%x skew=%x maxskew=%d msgs=%d flits=%d local=%d l1=%d/%d fin=%v stall=%v",
		res.ExecCycles, res.Retired, res.Packets,
		res.AvgLatency, res.AvgNetLatency, res.P95Latency, res.AvgHops,
		res.AvgSkew, res.MaxSkew,
		cs.Sys.MsgsSent(), cs.Sys.FlitsSent(), cs.Sys.LocalMsgs(), hits, misses,
		res.Finished, res.Stalled)
}
