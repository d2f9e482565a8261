package abstractnet

import (
	"repro/internal/noc"
	"repro/internal/sim"
)

// Network is the abstract network backend: it accepts the same packets
// as the cycle-level simulator but resolves each delivery time
// analytically at injection, modelling only per-source serialization
// (the NI sends one flit per cycle) on top of the analytical model's
// latency. It is a co-simulation backend (core.Backend); its packet
// bookkeeping is the noc.Ledger every packet network shares.
type Network struct {
	model Model

	// pending is keyed by DeliveredAt. Packet IDs are assigned in
	// injection order, so the queue's (When, Seq) order is (DeliveredAt,
	// ID).
	pending sim.TypedQueue[*noc.Packet]
	// srcFree[s] is the cycle source s's NI frees up; 0 = never used (a
	// used NI is busy for at least one flit). One entry per terminal.
	srcFree []sim.Cycle

	cycle sim.Cycle
	noc.Ledger
}

// NewNetwork returns an abstract backend over the given model, with one
// source NI per terminal of the model's topology.
func NewNetwork(model Model) *Network {
	return &Network{
		model:   model,
		srcFree: make([]sim.Cycle, model.terminals()),
		Ledger:  noc.NewLedger(),
	}
}

// Model exposes the underlying analytical model (for tuning).
func (n *Network) Model() Model { return n.model }

// Name identifies the network as a co-simulation backend by its model.
func (n *Network) Name() string { return "abstract-" + n.model.Name() }

// Close has nothing to stop: the abstract network runs no workers.
func (n *Network) Close() {}

// Inject computes the packet's delivery time analytically and queues
// it for Drain. Serialization at the source NI is modelled by keeping
// the source busy for one cycle per flit.
func (n *Network) Inject(p *noc.Packet, at sim.Cycle) {
	n.Admit(p, at)
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
	out := n.Scratch()
	for {
		d, ok := n.pending.PopUntil(n.cycle)
		if !ok {
			break
		}
		out = append(out, d.Item)
	}
	return n.Settle(out)
}

// Quiescent reports whether all injected packets have been drained.
func (n *Network) Quiescent() bool { return n.pending.Len() == 0 }
