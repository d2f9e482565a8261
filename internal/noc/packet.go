package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Packet is the unit of transfer the network's clients see. A packet
// is segmented into Size flits for transmission and reassembled at the
// destination network interface.
type Packet struct {
	// ID is assigned at injection and unique within a Network.
	ID uint64
	// Src and Dst are terminal (core/NI) indices.
	Src, Dst int
	// VNet selects the virtual network (0..Config.VNets-1).
	VNet int
	// Class labels the packet for latency statistics.
	Class stats.LatencyClass
	// Kind, Line and Value are the client's payload, carried and never
	// read: a message kind (0 for a packet that carries nothing) and
	// two words.
	Kind uint8
	// Size is the packet length in flits (>= 1).
	Size int
	// CreatedAt is when the packet entered its source injection queue;
	// InjectedAt is when its head flit entered the source router;
	// DeliveredAt is when its tail flit reached the destination NI.
	CreatedAt, InjectedAt, DeliveredAt sim.Cycle
	// Hops counts router traversals (1 for terminals sharing a router).
	Hops        int
	Line, Value uint64
}

// QueueingLatency reports cycles spent waiting in the source NI.
func (p *Packet) QueueingLatency() sim.Cycle { return p.InjectedAt - p.CreatedAt }

// NetworkLatency reports cycles from first flit entering the source
// router to the tail reaching the destination NI.
func (p *Packet) NetworkLatency() sim.Cycle { return p.DeliveredAt - p.InjectedAt }

// TotalLatency reports end-to-end cycles including source queueing.
func (p *Packet) TotalLatency() sim.Cycle { return p.DeliveredAt - p.CreatedAt }

// String formats the packet for diagnostics.
func (p *Packet) String() string {
	return fmt.Sprintf("pkt%d %d->%d vnet%d size%d", p.ID, p.Src, p.Dst, p.VNet, p.Size)
}

// flitEntry is a flit occupying an input-buffer slot. The head flit is
// seq 0 and the tail is seq Size-1 (a single-flit packet is both).
type flitEntry struct {
	pkt   *Packet
	seq   int32
	ready sim.Cycle // earliest cycle the router pipeline may switch it
}

func (f flitEntry) head() bool { return f.seq == 0 }
func (f flitEntry) tail() bool { return int(f.seq) == f.pkt.Size-1 }

// linkFlit is a flit in flight on a link, carrying the downstream
// virtual channel the sender allocated.
type linkFlit struct {
	pkt *Packet
	seq int32
	vc  int16
}

// The input-VC FIFOs live in one flat slice, Network.flits: VC i (see
// the index formulas on Network) owns slots [i*depth, (i+1)*depth),
// with its cursor in vcHead[i]/vcCount[i].

// pushFlit appends a flit to input VC (r, p, v), to become switchable
// once it has spent the router pipeline's depth in the buffer.
func (n *Network) pushFlit(r, p, v int, pkt *Packet, seq int32, now sim.Cycle) {
	i := r*n.pv + p*n.vcs + v
	c := int(n.vcCount[i])
	if c == n.depth {
		panic(fmt.Sprintf("noc: VC buffer overflow (credit protocol violation) pushing %v", pkt))
	}
	s := int(n.vcHead[i]) + c
	if s >= n.depth {
		s -= n.depth
	}
	n.flits[i*n.depth+s] = flitEntry{pkt: pkt, seq: seq, ready: now + sim.Cycle(n.cfg.RouterStages-1)}
	n.vcCount[i] = int32(c + 1)
	m, bit := n.maskBit(r, p, v)
	m.buf |= bit
	n.bufWrites[r]++
}

// maskBit locates input VC (r, p, v) in router r's masks: the mask word
// holding port p's VCs, and the VC's bit in it.
func (n *Network) maskBit(r, p, v int) (*vcMask, uint64) {
	b := int(n.portBit[p]) + v
	return &n.masks[r*n.mw+b>>6], 1 << uint(b&63)
}

// front returns the oldest flit of input VC i, which must not be empty.
func (n *Network) front(i int) *flitEntry {
	if n.vcCount[i] == 0 {
		panic("noc: front of empty VC buffer")
	}
	return &n.flits[i*n.depth+int(n.vcHead[i])]
}

// fifoAt returns the k-th oldest flit of input VC i.
func (n *Network) fifoAt(i, k int) *flitEntry {
	return &n.flits[i*n.depth+(int(n.vcHead[i])+k)%n.depth]
}

// popFlit removes and returns the oldest flit of input VC (r, p, v). The
// vacated slot drops its packet reference, so only live entries carry
// one (what the collector relies on).
func (n *Network) popFlit(r, p, v int) flitEntry {
	i := r*n.pv + p*n.vcs + v
	slot := n.front(i)
	e := *slot
	slot.pkt = nil
	if n.vcHead[i]++; int(n.vcHead[i]) == n.depth {
		n.vcHead[i] = 0
	}
	if n.vcCount[i]--; n.vcCount[i] == 0 {
		m, bit := n.maskBit(r, p, v)
		m.buf &^= bit
	}
	return e
}

// Every (router, port) owns two inbound rings, indexed by absolute
// cycle modulo the ring length so nothing shifts per cycle: flits
// arriving at input port p, and credits arriving for what p sends (a
// network port's output VCs; on a local port, the NI's view of the
// router's input buffers). A sender writes into the ring of the port at
// the far end (Network.peer) at slot tx; ingress reads only its own
// router's rings, at slot rx. Both slots are computed once per stepped
// cycle (setSlots), not per access.

// sendFlit places a flit on the inbound flit ring of port record dst,
// to arrive LinkLatency cycles from now.
func (n *Network) sendFlit(dst int, f linkFlit) {
	slot := &n.linkFlits[dst*n.flitRing+n.txFlit]
	if slot.pkt != nil {
		panic("noc: link flit slot collision")
	}
	*slot = f
}

// recvFlit takes the flit arriving this cycle at port record rp, if any.
func (n *Network) recvFlit(rp int) (linkFlit, bool) {
	slot := &n.linkFlits[rp*n.flitRing+n.rxFlit]
	if slot.pkt == nil {
		return linkFlit{}, false
	}
	f := *slot
	*slot = linkFlit{}
	return f, true
}

// sendCredit places a credit for VC vc on the inbound credit ring of
// port record dst, to arrive CreditLatency cycles from now.
func (n *Network) sendCredit(dst int, vc int16) {
	slot := &n.linkCredits[dst*n.credRing+n.txCred]
	if *slot != -1 {
		panic("noc: link credit slot collision")
	}
	*slot = vc
}

// recvCredit takes the credit arriving this cycle at port record rp,
// if any.
func (n *Network) recvCredit(rp int) (int16, bool) {
	slot := &n.linkCredits[rp*n.credRing+n.rxCred]
	vc := *slot
	if vc == -1 {
		return -1, false
	}
	*slot = -1
	return vc, true
}

// setSlots computes the ring slots of the cycle about to be stepped. A
// ring is one slot longer than its latency, so the slot a send lands in
// is the one just behind the slot being received.
func (n *Network) setSlots() {
	n.rxFlit = int(n.cycle % sim.Cycle(n.flitRing))
	n.txFlit = (n.rxFlit + n.flitRing - 1) % n.flitRing
	n.rxCred = int(n.cycle % sim.Cycle(n.credRing))
	n.txCred = (n.rxCred + n.credRing - 1) % n.credRing
}
