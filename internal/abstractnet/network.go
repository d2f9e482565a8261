package abstractnet

import (
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Network is the abstract network backend: it accepts the same packets
// as the cycle-level simulator but resolves each delivery time
// analytically at injection, modelling only per-source serialization
// (the NI sends one flit per cycle) on top of the analytical model's
// latency. It satisfies the co-simulation Backend contract.
type Network struct {
	model   Model
	tracker *stats.LatencyTracker

	// pending is keyed by DeliveredAt. Packet IDs are assigned in
	// injection order, so the queue's (When, Seq) order is (DeliveredAt,
	// ID).
	pending sim.TypedQueue[*noc.Packet]
	// srcFree[s] is the cycle source s's NI frees up; 0 = never used (a
	// used NI is busy for at least one flit). One entry per terminal.
	srcFree []sim.Cycle

	cycle     sim.Cycle
	injected  uint64
	delivered uint64
	nextID    uint64
	drainBuf  []*noc.Packet  //simlint:derived drain scratch, emptied by rederive
	pool      noc.PacketPool //simlint:derived host-side free list, this network's own; emptied by rederive, never simulated state
}

// NewNetwork returns an abstract backend over the given model, with one
// source NI per terminal of the model's topology.
func NewNetwork(model Model) *Network {
	return &Network{
		model:   model,
		tracker: stats.NewLatencyTracker(4, 512),
		srcFree: make([]sim.Cycle, model.terminals()),
	}
}

// Model exposes the underlying analytical model (for tuning).
func (n *Network) Model() Model { return n.model }

// Inject computes the packet's delivery time analytically and queues
// it for Drain. Serialization at the source NI is modelled by keeping
// the source busy for one cycle per flit.
func (n *Network) Inject(p *noc.Packet, at sim.Cycle) {
	p.ID = n.nextID
	n.nextID++
	p.CreatedAt = at
	start := max(at, n.srcFree[p.Src])
	n.srcFree[p.Src] = start + sim.Cycle(p.Size)
	p.InjectedAt = start
	lat := n.model.Latency(p.Src, p.Dst, p.Size, start)
	if lat < 1 {
		lat = 1
	}
	p.DeliveredAt = start + sim.Cycle(lat+0.5)
	p.Hops = 0 // the abstract model does not traverse routers
	n.pending.Schedule(p.DeliveredAt, p)
	n.injected++
}

// AdvanceTo moves the abstract clock to the given cycle; there is
// nothing to simulate beyond rolling the model's load windows.
func (n *Network) AdvanceTo(cycle sim.Cycle) {
	n.cycle = cycle
	n.model.AdvanceTo(cycle)
}

// Cycle reports the abstract clock.
func (n *Network) Cycle() sim.Cycle { return n.cycle }

// Drain returns packets whose computed delivery time has arrived,
// recording latency statistics. The returned slice is reused.
func (n *Network) Drain() []*noc.Packet {
	out := n.drainBuf[:0]
	for {
		d, ok := n.pending.PopUntil(n.cycle)
		if !ok {
			break
		}
		p := d.Item
		n.tracker.Record(p.Class,
			float64(p.QueueingLatency()), float64(p.NetworkLatency()), p.Hops)
		out = append(out, p)
	}
	n.delivered += uint64(len(out))
	n.drainBuf = out
	return out
}

// NewPacket returns a zeroed packet, recycled from the network's free
// list when one is available. Callers that use it hand drained packets
// back through Recycle once they are done with them.
func (n *Network) NewPacket() *noc.Packet { return n.pool.Get() }

// Recycle returns a drained packet to the free list. The caller must
// hold the only remaining reference.
func (n *Network) Recycle(p *noc.Packet) { n.pool.Put(p) }

// Tracker reports latency statistics of drained packets.
func (n *Network) Tracker() *stats.LatencyTracker { return n.tracker }

// Injected reports accepted packets.
func (n *Network) Injected() uint64 { return n.injected }

// Delivered reports drained packets.
func (n *Network) Delivered() uint64 { return n.delivered }

// InFlight reports packets injected but not drained.
func (n *Network) InFlight() int { return int(n.injected - n.delivered) }

// Quiescent reports whether all injected packets have been drained.
func (n *Network) Quiescent() bool { return n.pending.Len() == 0 }
