package noc

import (
	"time"

	"repro/internal/noc/engine"
	"repro/internal/sim"
)

// NoC stepping (see DESIGN.md "NoC stepping"): the router range is
// partitioned into S = max(1, min(workers, R)) contiguous shards, each
// with its own wake schedule, and a gated cycle steps every shard's
// active routers. The partition leans on the future-addressing
// discipline of the router model: every cross-router interaction
// travels through a link/credit ring slot (or a staging slot) addressed
// at least one cycle ahead, so a shard never reads another shard's
// same-cycle state and the only synchronization is the barrier between
// per-cycle passes.
//
// There is one gated step path for every S. The default network is the
// one-shard case: its single shard steps inline on the caller, with no
// worker pool, no clock reads and no cross-shard wake merge — all three
// exist only to coordinate more than one shard, so the choice is made
// from S itself, not from a setting.
//
// Wakes that a shard's pass addresses to a router outside its range
// cannot be written into the owning shard's schedule directly (that
// would race with the owner's own pass); they are buffered into a
// per-shard outbox and merged sequentially after the barrier.
// Merge order cannot leak into simulated state: wake scheduling is
// bitmap ORs (commutative, idempotent) plus a heap whose drain order is
// normalized by due()'s bitmap fold, so every partition yields a
// schedule set-equal — and therefore bit-identical in effect — to the
// one-shard one.
//
// Everything here is derived state: shard assignment, wake schedules,
// outboxes, and counters are recomputed on construction and
// conservatively re-seeded after a decode (rederive), never serialized.
// Sharding is a speed knob, never an accuracy knob.

// shard is one contiguous router range [lo, hi) with its own wake
// schedule and per-cycle scratch. The padding keeps hot per-shard
// counters on distinct cache lines so concurrent shard sweeps never
// false-share.
type shard struct {
	lo, hi int32

	gate   gate
	active []int32 // this cycle's active list, valid until the next due()

	// outbox buffers cross-shard wakes (packed cycle<<wakeShift|router,
	// the heap encoding) produced by this shard's pass; the merge
	// after the barrier drains it into the owning shards' schedules.
	outbox []uint64

	// swapBuf is the deflection swap-candidate scratch.
	swapBuf []int32

	// boundary lists this shard's routers with at least one neighbour in
	// another shard; nbrShards lists the shards those neighbours live
	// in. The deflection swap pass scans boundary only when a
	// neighbouring shard was active this cycle.
	boundary  []int32
	nbrShards []int32

	// Host-side accounting: boundaryWakes counts events that crossed a
	// shard boundary, busyNanos accumulates this shard's in-pass wall
	// time for the barrier-share metric (S > 1 only).
	boundaryWakes uint64
	busyNanos     int64

	_ [64]byte // cache-line pad between neighbouring shards
}

// wakeOut routes a wake for router t from this shard's pass:
// in-range wakes go straight into the shard's own schedule, cross-shard
// wakes are packed into the outbox for the post-barrier merge.
func (s *shard) wakeOut(t int32, at, now sim.Cycle) {
	if t >= s.lo && t < s.hi {
		s.gate.wakeAt(t, at, now)
		return
	}
	s.outbox = append(s.outbox, uint64(at)<<wakeShift|uint64(uint32(t))) //simlint:allow alloc outbox capacity is retained across cycles; steady state appends in place
	s.boundaryWakes++
}

// partition is the step-path state both cycle-level networks embed: the
// shards, the router-to-shard table, the lazily started worker pool and
// the host-side work counters. The exhaustive reference sweep keeps a
// (never stepped) one-shard partition too, so no caller branches on
// its presence.
type partition struct {
	// exhaustive marks the every-router-every-cycle reference sweep:
	// nothing is scheduled and every cycle is an event.
	exhaustive bool
	// workers is the worker count requested at construction (the
	// WithWorkers options set it before init).
	workers int

	shards  []shard
	shardOf []int16

	// pool runs the passes of a multi-shard cycle. It starts on the
	// first such cycle, so a network that is built or restored but
	// never stepped holds no goroutines.
	pool      *engine.Parallel
	pass      func(si int) // the pass timedPass is dispatching
	timedPass func(si int)

	// Work accounting (host-side observability; never serialized).
	stepped         uint64
	skipped         uint64
	activeSum       uint64
	shardsActiveSum uint64
	stepNanos       int64
}

// init partitions R routers into max(1, min(workers, R)) near-equal
// contiguous shards — one for the exhaustive sweep, which never steps
// them. The wake schedules are the owner's rederive's to seed.
func (p *partition) init(R int, exhaustive bool) {
	p.exhaustive = exhaustive
	S := 1
	if !exhaustive {
		S = max(1, min(p.workers, R))
	}
	p.shards = make([]shard, S)
	p.shardOf = make([]int16, R)
	for si := range p.shards {
		lo, hi := engine.Chunk(R, S, si)
		p.shards[si].lo, p.shards[si].hi = int32(lo), int32(hi)
		for r := lo; r < hi; r++ {
			p.shardOf[r] = int16(si)
		}
	}
}

// resetWake conservatively re-seeds every wake schedule: wake
// everything once, drop all scheduled events, clear outboxes. Both
// networks' rederive starts from it.
func (p *partition) resetWake() {
	for si := range p.shards {
		s := &p.shards[si]
		s.gate.reset(s.lo, int(s.hi-s.lo))
		s.outbox = s.outbox[:0]
	}
}

// wakeRouter schedules router r to run at cycle `at` from sequential
// (non-wake-pass) contexts: injection and post-restore rebuilds.
func (p *partition) wakeRouter(r int32, at, now sim.Cycle) {
	if p.exhaustive {
		return
	}
	p.shards[p.shardOf[r]].gate.wake(r, max(at, now), now)
}

// nextEvent reports the earliest cycle at or after now at which any
// router must run, and false when nothing is pending anywhere. The
// exhaustive sweep treats every cycle as an event.
func (p *partition) nextEvent(now sim.Cycle) (sim.Cycle, bool) {
	if p.exhaustive {
		return now, true
	}
	best, ok := sim.Cycle(0), false
	for si := range p.shards {
		if c, o := p.shards[si].gate.next(now); o && (!ok || c < best) {
			best, ok = c, true
		}
	}
	return best, ok
}

// advanceTo moves the owning network's clock to c, calling step for
// every cycle with a pending event and fast-forwarding the rest. The
// clock never jumps past c or past any scheduled event (injections
// included), so this is bit-identical to calling step c-*clock times.
func (p *partition) advanceTo(clock *sim.Cycle, c sim.Cycle, step func()) {
	for *clock < c {
		next, ok := p.nextEvent(*clock)
		if !ok || next >= c {
			p.skipped += uint64(c - *clock)
			*clock = c
			return
		}
		if next > *clock {
			p.skipped += uint64(next - *clock)
			*clock = next
		}
		step()
	}
}

// stepSharded runs one gated cycle: every pass over every shard with a
// barrier after each, then the sequential merge of cross-shard wakes
// into their owners' schedules — the only code that writes across shard
// ranges — and the accounting. One shard needs none of the coordination.
func (p *partition) stepSharded(now sim.Cycle, passes ...func(si int)) {
	p.stepped++
	if len(p.shards) == 1 {
		for _, pass := range passes {
			pass(0)
		}
		if k := len(p.shards[0].active); k > 0 {
			p.activeSum += uint64(k)
			p.shardsActiveSum++
		}
		return
	}
	t0 := time.Now() //simlint:allow wallclock shard timing feeds the wall-gated barrier-share metric only, never simulated state
	if p.pool == nil {
		p.pool = engine.NewParallel(len(p.shards))
		p.timedPass = func(si int) {
			t0 := time.Now() //simlint:allow wallclock shard timing feeds the wall-gated barrier-share metric only, never simulated state
			p.pass(si)
			p.shards[si].busyNanos += time.Since(t0).Nanoseconds() //simlint:allow wallclock shard timing feeds the wall-gated barrier-share metric only, never simulated state
		}
	}
	for _, pass := range passes {
		p.pass = pass
		p.pool.Run(len(p.shards), p.timedPass)
	}
	for si := range p.shards {
		s := &p.shards[si]
		if k := len(s.active); k > 0 {
			p.activeSum += uint64(k)
			p.shardsActiveSum++
		}
		for _, w := range s.outbox {
			t := int32(w & wakeRouterMask)
			p.shards[p.shardOf[t]].gate.wakeAt(t, sim.Cycle(w>>wakeShift), now)
		}
		s.outbox = s.outbox[:0]
	}
	p.stepNanos += time.Since(t0).Nanoseconds() //simlint:allow wallclock shard timing feeds the wall-gated barrier-share metric only, never simulated state
}

// Close stops the worker pool, if one was started. A later Step starts
// a fresh one.
func (p *partition) Close() {
	if p.pool != nil {
		p.pool.Close()
		p.pool = nil
	}
}

// activityStats reports the gating layer's work accounting.
func (p *partition) activityStats(pool *PacketPool) ActivityStats {
	return ActivityStats{
		Stepped:    p.stepped,
		Skipped:    p.skipped,
		ActiveSum:  p.activeSum,
		Routers:    len(p.shardOf),
		PoolHits:   pool.hits,
		PoolMisses: pool.misses,
	}
}

// ShardStats reports the partition's work accounting.
func (p *partition) ShardStats() ShardStats {
	st := ShardStats{
		Shards:          len(p.shards),
		Stepped:         p.stepped,
		ShardsActiveSum: p.shardsActiveSum,
		StepNanos:       p.stepNanos,
	}
	for si := range p.shards {
		st.BoundaryWakes += p.shards[si].boundaryWakes
		st.BusyNanos += p.shards[si].busyNanos
	}
	return st
}

// ShardStats is the shard partition's host-side work accounting, the
// shard-level companion to ActivityStats. Like it, the stats never
// enter snapshots or fingerprints: they measure simulator effort, not
// simulated state. BusyNanos and StepNanos are wall-clock measures,
// taken only when more than one shard steps, and must only feed
// host-side (wall-gated) observability.
type ShardStats struct {
	// Shards is the partition width (1 by default).
	Shards int
	// Stepped counts cycles simulated by a phase sweep.
	Stepped uint64
	// ShardsActiveSum accumulates, per stepped cycle, the number of
	// shards whose active set was non-empty.
	ShardsActiveSum uint64
	// BoundaryWakes counts events that crossed a shard boundary: wakes
	// addressed to another shard's router (VC) or flits staged across a
	// boundary (deflection).
	BoundaryWakes uint64
	// BusyNanos sums per-shard in-pass wall time; StepNanos is the wall
	// time of the whole multi-shard step path, barriers included.
	BusyNanos, StepNanos int64
}

// MeanActiveShards reports the mean number of busy shards per stepped
// cycle — the realized parallelism ceiling.
func (s ShardStats) MeanActiveShards() float64 {
	if s.Stepped == 0 {
		return 0
	}
	return float64(s.ShardsActiveSum) / float64(s.Stepped)
}

// BarrierShare estimates the fraction of the multi-shard step path's
// worker-time spent outside shard passes (barriers, dispatch, and the
// sequential merge): 1 - busy/(step x shards).
func (s ShardStats) BarrierShare() float64 {
	denom := float64(s.StepNanos) * float64(s.Shards)
	if denom <= 0 {
		return 0
	}
	share := 1 - float64(s.BusyNanos)/denom
	if share < 0 {
		return 0
	}
	return share
}
