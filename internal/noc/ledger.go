package noc

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Ledger is the packet bookkeeping every packet network shares — the
// cycle-level network and the abstract network (internal/abstractnet)
// embed one: it stamps each admitted packet with its ID and creation
// cycle, counts packets in and out, records every drained packet's
// latency, and owns the network's packet free list. What a network
// adds is how a packet gets from Admit to Settle.
type Ledger struct {
	tracker   *stats.LatencyTracker
	injected  uint64
	delivered uint64
	nextID    uint64
	drainBuf  []*Packet  //simlint:derived drain scratch, emptied by every decode
	packets   PacketPool //simlint:derived host-side free list, never simulated state
}

// NewLedger returns an empty ledger.
func NewLedger() Ledger {
	return Ledger{tracker: stats.NewLatencyTracker(4, 512)}
}

// Admit stamps a packet entering the network at cycle at with the next
// ID and its creation time, and counts it in.
func (l *Ledger) Admit(p *Packet, at sim.Cycle) {
	p.ID = l.nextID
	l.nextID++
	p.CreatedAt = at
	l.injected++
}

// Scratch returns the drain scratch, emptied, for a Drain to append
// its deliveries to and pass to Settle.
func (l *Ledger) Scratch() []*Packet { return l.drainBuf[:0] }

// Settle records the latency of every delivered packet in out, counts
// them out, keeps out as the next Drain's scratch and returns it.
func (l *Ledger) Settle(out []*Packet) []*Packet {
	for _, p := range out {
		l.tracker.Record(p.Class, float64(p.QueueingLatency()), float64(p.NetworkLatency()), p.Hops)
	}
	l.delivered += uint64(len(out))
	l.drainBuf = out
	return out
}

// NewPacket returns a zeroed packet, recycled from the network's free
// list when one is available. Callers that use it hand delivered
// packets back through Recycle once they are done with them.
func (l *Ledger) NewPacket() *Packet { return l.packets.Get() }

// Recycle returns a drained packet to the free list. The caller must
// hold the only remaining reference: a recycled packet is zeroed and
// will be reused by a future NewPacket.
func (l *Ledger) Recycle(p *Packet) { l.packets.Put(p) }

// Tracker reports latency statistics of drained packets.
func (l *Ledger) Tracker() *stats.LatencyTracker { return l.tracker }

// Injected reports packets admitted.
func (l *Ledger) Injected() uint64 { return l.injected }

// Delivered reports packets settled by Drain.
func (l *Ledger) Delivered() uint64 { return l.delivered }

// InFlight reports packets admitted but not yet drained.
func (l *Ledger) InFlight() int { return int(l.injected - l.delivered) }

// State walks the header every packet network writes: the network's
// clock, then the counters and the latency tracker. The free list is
// host-side and stays as it is: its packets are zeroed and unreferenced
// whatever the restored state.
func (l *Ledger) State(c *snapshot.Codec, clock *sim.Cycle) {
	snapshot.As64(c, clock)
	c.U64(&l.injected)
	c.U64(&l.delivered)
	c.U64(&l.nextID)
	l.tracker.State(c)
	if c.Decoding() {
		l.drainBuf = l.drainBuf[:0]
	}
}
