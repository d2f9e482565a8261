package noc

import (
	"math/bits"

	"repro/internal/sim"
)

// Activity gating (see DESIGN.md "NoC stepping"): the cycle-level
// network maintains a deterministic set of routers that can possibly
// change state in the current cycle, and the per-cycle sweep visits
// only that set. The discipline has two halves:
//
//   - A router that is skipped must be a byte-level no-op under every
//     phase. That holds because each phase early-outs on empty input
//     state: RC/VA/SA touch their round-robin pointers only when a
//     request exists, and the per-cycle scratch (grants, saGrant) is
//     rewritten before it is read on the next active cycle, so stale
//     scratch is unobservable.
//
//   - A router must never miss a cycle in which it has work. Every
//     future event is therefore scheduled into the wake structure at
//     the moment it is created: a flit send wakes the receiver at the
//     flit's ingest cycle (see sendFlit), a credit send wakes its
//     consumer at the credit-arrival cycle, an injection wakes the
//     source router at the packet's creation cycle, and a router whose
//     local state can still make progress re-arms itself for the next
//     cycle. Missing slots in the absolute-cycle-indexed link rings
//     would corrupt them, so conservative extra wakes are legal (they
//     no-op) while missed wakes are fatal (the rings panic on
//     collision, which the test suite would catch).
//
// All wake bookkeeping is derived state: it is never serialized, and
// a restore conservatively wakes everything, so gating cannot perturb
// snapshot bytes or determinism fingerprints.

// wakeShift packs a wake event into one uint64 as cycle<<wakeShift |
// router. Heap ordering on the packed value is cycle-major with a
// deterministic router-minor tie-break. 20 bits of router index and 44
// bits of cycle bound nothing this repository can reach.
const wakeShift = 20

const wakeRouterMask = (1 << wakeShift) - 1

// ringHorizon is the wake ring's reach in cycles (a power of two).
// Wakes landing closer than this are one bit-set in a cycle-indexed
// bitmap slot; only wakes at least a horizon away pay for the heap.
const ringHorizon = 128

// gate is one shard's activity-gating state machine, a three-tier wake
// schedule: the carry bitmap of routers known to be busy in the next
// stepped cycle, a ring of per-cycle bitmaps for wakes within
// ringHorizon, and a min-heap for the far future. The bitmaps make
// the hot path cheap: scheduling a wake is one bit-set (duplicates
// are free), and draining yields the active list already
// deduplicated and in ascending router order, so nothing is ever
// sorted and the heap stays cold. The zero value gates an empty
// range; call reset before first use to wake every router once.
type gate struct {
	// base is the first router id this schedule covers: the shard's
	// contiguous range is [base, base+R), bitmap bits are stored at local
	// offsets, and every method speaks global router ids.
	base int32

	heap  []uint64 // packed far-future wakes, min-heap (global ids)
	carry []uint64 // bitmap of routers busy next cycle
	ring  []uint64 // ringHorizon slots of `words`-wide wake bitmaps
	buf   []int32  // scratch backing for due()
	ident []int32  // base..base+R-1, returned by due() when every router is active
	full  []uint64 // the all-routers bitmap due() compares against
	words int      // carry bitmap width in uint64s
}

// wake schedules router r to run at cycle `at`, where `now` is the
// next cycle whose due() has not run yet (callers wake strictly ahead
// of the merge point: a ring slot is merged and cleared exactly once,
// when the clock reaches its cycle). Duplicate schedules are legal
// and deduplicated when they fall due.
func (g *gate) wake(r int32, at, now sim.Cycle) {
	if at-now < ringHorizon {
		lr := r - g.base
		g.ring[int(at%ringHorizon)*g.words+int(lr)>>6] |= 1 << (uint(lr) & 63)
		return
	}
	h := append(g.heap, uint64(at)<<wakeShift|uint64(uint32(r)))
	// Sift the new tail up.
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if h[p] <= h[i] {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	g.heap = h
}

// markNext flags router r busy for the next stepped cycle.
func (g *gate) markNext(r int32) {
	lr := r - g.base
	g.carry[lr>>6] |= 1 << (uint(lr) & 63)
}

// wakeAt schedules router r to run at cycle `at` from a shard pass
// running at cycle `now` (whose carry bits force cycle now+1 to run).
// Next-cycle wakes — all flit and credit arrivals under the common
// single-cycle link latency — go to the carry bitmap directly.
func (g *gate) wakeAt(r int32, at, now sim.Cycle) {
	if at <= now+1 {
		g.markNext(r)
		return
	}
	g.wake(r, at, now)
}

// pop removes the heap minimum.
func (g *gate) pop() {
	h := g.heap
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l] < h[m] {
			m = l
		}
		if r < n && h[r] < h[m] {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	g.heap = h
}

// due returns the ascending, deduplicated set of routers that must run
// at cycle now: the carry bitmap, cycle now's ring slot, and every
// heap entry at or before now. Everything folds into the carry bitmap
// first, so extraction by trailing-zeros scan yields the active list
// already unique and in ascending order — no sort, no per-entry
// dedupe. The returned slice is valid until the next due call.
func (g *gate) due(now sim.Cycle) []int32 {
	limit := uint64(now+1) << wakeShift
	for len(g.heap) > 0 && g.heap[0] < limit {
		g.markNext(int32(g.heap[0] & wakeRouterMask))
		g.pop()
	}
	s := int(now%ringHorizon) * g.words
	for w := 0; w < g.words; w++ {
		g.carry[w] |= g.ring[s+w]
		g.ring[s+w] = 0
	}
	// Full-occupancy fast path (the norm under saturation): skip the
	// extraction and hand back the identity list.
	allFull := true
	for w := 0; w < g.words; w++ {
		if g.carry[w] != g.full[w] {
			allFull = false
			break
		}
	}
	if allFull {
		for w := range g.carry {
			g.carry[w] = 0
		}
		return g.ident
	}
	buf := g.buf[:0]
	for w, word := range g.carry {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &= word - 1
			buf = append(buf, g.base+int32(w<<6+b))
		}
		g.carry[w] = 0
	}
	g.buf = buf
	return buf
}

// next reports the earliest cycle at or after now at which any router
// must run; ok is false when nothing is pending anywhere. The ring
// scan starts at cycle now's own slot: a wake at the current cycle is
// legal as long as due(now) has not run yet.
func (g *gate) next(now sim.Cycle) (sim.Cycle, bool) {
	for _, w := range g.carry {
		if w != 0 {
			return now, true
		}
	}
	best := sim.Cycle(0)
	ok := false
	for d := sim.Cycle(0); d < ringHorizon; d++ {
		s := int((now+d)%ringHorizon) * g.words
		for w := 0; w < g.words; w++ {
			if g.ring[s+w] != 0 {
				best, ok = now+d, true
				break
			}
		}
		if ok {
			break
		}
	}
	if len(g.heap) > 0 {
		c := sim.Cycle(g.heap[0] >> wakeShift)
		if c < now {
			c = now
		}
		if !ok || c < best {
			best, ok = c, true
		}
	}
	return best, ok
}

// reset conservatively wakes the R routers of the range [base, base+R)
// for the next cycle and discards every scheduled event (callers
// rebuild in-flight wakes from state, e.g. after a snapshot restore).
func (g *gate) reset(base int32, R int) {
	g.heap = g.heap[:0]
	g.words = (R + 63) >> 6
	if len(g.ident) != R || g.base != base {
		g.base = base
		g.carry = make([]uint64, g.words)
		g.ring = make([]uint64, ringHorizon*g.words)
		g.ident = make([]int32, R)
		g.full = make([]uint64, g.words)
		for r := 0; r < R; r++ {
			g.ident[r] = base + int32(r)
			g.full[r>>6] |= 1 << (uint(r) & 63)
		}
	}
	for w := range g.carry {
		g.carry[w] = 0
	}
	for w := range g.ring {
		g.ring[w] = 0
	}
	for r := 0; r < R; r++ {
		g.markNext(base + int32(r))
	}
}

// ActivityStats is the gating layer's host-side work accounting,
// exposed by the cycle-level network (and sampled per quantum by the
// observability layer). It never enters snapshots or fingerprints: it
// measures simulator effort, not simulated state.
type ActivityStats struct {
	// Stepped counts cycles simulated by a phase sweep; Skipped counts
	// cycles fast-forwarded without one. Their sum is the simulated
	// cycle count.
	Stepped, Skipped uint64
	// ActiveSum accumulates the active-set size over stepped cycles;
	// ActiveSum/Stepped is the mean swept fraction numerator.
	ActiveSum uint64
	// Routers is the network size ActiveSum is measured against.
	Routers int
	// PoolHits and PoolMisses count packet allocations served from the
	// free list versus from the Go heap.
	PoolHits, PoolMisses uint64
}

// Occupancy reports the mean active-set share per stepped cycle.
func (a ActivityStats) Occupancy() float64 {
	if a.Stepped == 0 || a.Routers == 0 {
		return 0
	}
	return float64(a.ActiveSum) / float64(a.Stepped) / float64(a.Routers)
}

// PoolHitRate reports the fraction of packet allocations recycled from
// the free list.
func (a ActivityStats) PoolHitRate() float64 {
	total := a.PoolHits + a.PoolMisses
	if total == 0 {
		return 0
	}
	return float64(a.PoolHits) / float64(total)
}

// PacketPool is a free list of recycled Packets. Each packet network
// owns one through its Ledger, which a co-simulation backend exposes
// as NewPacket/Recycle. Get and Put run only between steps,
// never inside a shard pass, so the pool needs no synchronization. The
// zero value is an empty pool.
type PacketPool struct {
	free   []*Packet
	hits   uint64
	misses uint64
}

// Get returns a zeroed packet, recycled when possible.
func (pp *PacketPool) Get() *Packet {
	if n := len(pp.free); n > 0 {
		p := pp.free[n-1]
		pp.free[n-1] = nil
		pp.free = pp.free[:n-1]
		pp.hits++
		return p
	}
	pp.misses++
	return &Packet{}
}

// Put recycles a packet the caller no longer references. The packet is
// zeroed here so a pooled get never leaks a previous life's fields
// (Hops and the timestamps are cumulative at their use sites).
func (pp *PacketPool) Put(p *Packet) {
	if p == nil {
		return
	}
	*p = Packet{}
	pp.free = append(pp.free, p)
}
