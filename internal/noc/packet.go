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

// Inside the network a packet is a handle: a uint32 index into the
// network's packet table, taken when the packet is injected and
// returned when it is drained (Network.take, Network.release). Handle
// 0 names no packet. Beside the table, two dense columns hold what the
// router reads on every hop: the route key RC hands to the routing
// function and the hop count ST increments on a head flit. So no phase
// loads a packet between injection and ejection, and no flit record
// holds a pointer.
//
// A flit record carries its packet's handle in ref, with tailBit set
// on the packet's last flit, so the switch releases a VC without
// looking the packet up.
const tailBit = 1 << 31

// routeKey is a packet's endpoints, as RC reads them.
type routeKey struct {
	src, dst int32
}

// flitEntry is a flit occupying an input-buffer slot. The head flit is
// seq 0 and the tail is seq Size-1 (a single-flit packet is both).
type flitEntry struct {
	ref   uint32    // packet handle, | tailBit on the last flit
	seq   int32     // flit index within the packet
	ready sim.Cycle // earliest cycle the router pipeline may switch it
}

func (f flitEntry) head() bool     { return f.seq == 0 }
func (f flitEntry) tail() bool     { return f.ref&tailBit != 0 }
func (f flitEntry) handle() uint32 { return f.ref &^ tailBit }

// linkFlit is a flit in flight on a link, carrying the downstream
// virtual channel the sender allocated. An empty ring slot has ref 0.
type linkFlit struct {
	ref uint32
	seq int32
	vc  int16
}

// entry is the buffer entry of link flit f, switchable from cycle ready.
func (f linkFlit) entry(ready sim.Cycle) flitEntry {
	return flitEntry{ref: f.ref, seq: f.seq, ready: ready}
}

// take gives packet p a handle and fills its columns. It runs outside
// the shard pass (at Inject), so a pass only ever reads the table.
func (n *Network) take(p *Packet) uint32 {
	var h uint32
	if k := len(n.free); k > 0 {
		h = n.free[k-1]
		n.free = n.free[:k-1]
	} else {
		h = uint32(len(n.pkts))
		if h >= tailBit {
			panic("noc: packet table full")
		}
		n.pkts = append(n.pkts, nil)
		n.keys = append(n.keys, routeKey{})
		n.hopCnt = append(n.hopCnt, 0)
	}
	n.pkts[h] = p
	n.keys[h] = routeKey{src: int32(p.Src), dst: int32(p.Dst)}
	n.hopCnt[h] = int32(p.Hops)
	return h
}

// release returns handle h to the free list and its packet, with Hops
// written from the column. It runs outside the shard pass (at Drain).
func (n *Network) release(h uint32) *Packet {
	p := n.pkts[h]
	p.Hops = int(n.hopCnt[h])
	n.pkts[h] = nil
	n.free = append(n.free, h)
	return p
}

// refOf is the flit reference of flit seq of the packet with handle h:
// h, with tailBit set on the packet's last flit (0 for no packet).
func (n *Network) refOf(h uint32, seq int32) uint32 {
	if h != 0 && int(seq) == n.pkts[h].Size-1 {
		return h | tailBit
	}
	return h
}

// checkHandles asserts, under the simcheck build tag, that the packet
// table agrees with the ledger and itself: as many live handles as
// packets in flight, each live handle's route key equal to its
// packet's endpoints, and every free handle empty and free once.
func (n *Network) checkHandles() {
	if !sim.Checking {
		return
	}
	live := 0
	for h := 1; h < len(n.pkts); h++ {
		p := n.pkts[h]
		if p == nil {
			continue
		}
		live++
		if k := n.keys[h]; int(k.src) != p.Src || int(k.dst) != p.Dst {
			sim.Assert(false, "noc: handle %d route key %d->%d, its packet %v", h, k.src, k.dst, p)
		}
	}
	if live != n.InFlight() {
		sim.Assert(false, "noc: %d live packet handles, %d packets in flight", live, n.InFlight())
	}
	if w := (len(n.pkts) + 63) >> 6; len(n.freeSeen) < w {
		n.freeSeen = make([]uint64, w)
	} else {
		clear(n.freeSeen)
	}
	for _, h := range n.free {
		if h == 0 || int(h) >= len(n.pkts) || n.pkts[h] != nil {
			sim.Assert(false, "noc: free handle %d is not an empty table entry", h)
			continue
		}
		if bit := uint64(1) << (h & 63); n.freeSeen[h>>6]&bit != 0 {
			sim.Assert(false, "noc: handle %d is free twice", h)
		} else {
			n.freeSeen[h>>6] |= bit
		}
	}
}

// The input-VC FIFOs live in one flat slice, Network.flits: VC i (see
// the index formulas on Network) owns slots [i*depth, (i+1)*depth),
// with its cursor in vcHead[i]/vcCount[i].

// pushFlit appends flit e to input VC (r, p, v). A flit injected by
// the NI becomes switchable once it has spent the router pipeline's
// depth in the buffer; a link flit enters at the cycle it first can
// move (see sendFlit).
func (n *Network) pushFlit(r, p, v int, e flitEntry) {
	i := r*n.pv + p*n.vcs + v
	c := int(n.vcCount[i])
	if c == n.depth {
		panic(fmt.Sprintf("noc: VC buffer overflow (credit protocol violation) pushing %v", n.pkts[e.handle()]))
	}
	s := int(n.vcHead[i]) + c
	if s >= n.depth {
		s -= n.depth
	}
	n.flits[i*n.depth+s] = e
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

// popFlit removes and returns the oldest flit of input VC (r, p, v).
func (n *Network) popFlit(r, p, v int) flitEntry {
	i := r*n.pv + p*n.vcs + v
	e := *n.front(i)
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
//
// A link flit is addressed to its ingest cycle, LinkLatency +
// RouterStages - 1 cycles after the send: the cycle it could first be
// switched had it entered the buffer on arrival. Until then no phase
// could see it in the buffer (RC, SA and the busy-VC walks skip it on
// ready, and credits never read the buffer), so the router takes it in
// and switches it in one activation. The flit ring is therefore
// LinkLatency + RouterStages slots long, the credit ring CreditLatency
// + 1.
//
// Beside the rings, each (cycle slot, router) has one arrival byte per
// port: arrFlit set when a flit is due at that port in that cycle,
// arrCred when a credit is. Both bits of a byte are written by the
// router across the port (by the router itself on a local port, whose
// credits its own switch returns to the NI), and ingress reads a
// router's bytes for the current slot as whole words, so it visits
// only the rings that hold something. The reader's slot is never a
// slot written in the same cycle, and no two routers write one byte,
// so shards never share a written byte. The bytes are derived from
// the rings (rederive).

// Arrival byte bits, and those bits in every byte of a word.
const (
	arrFlit  = 1
	arrCred  = 2
	arrFlits = 0x0101010101010101 * arrFlit
	arrCreds = 0x0101010101010101 * arrCred
)

// arrByte is the offset, within an arrival slot, of the byte of port
// record far.slot of router far.router.
func (n *Network) arrByte(far portRef) int {
	return int(far.router)*(n.arrStride-n.ports) + int(far.slot)
}

// sendFlit places a flit on the inbound flit ring of the port at far,
// to be taken in at its ingest cycle, and flags its arrival byte.
func (n *Network) sendFlit(far portRef, f linkFlit) {
	slot := &n.linkFlits[int(far.slot)*n.flitRing+n.txFlit]
	if slot.ref != 0 {
		panic("noc: link flit slot collision")
	}
	*slot = f
	n.arrivals[n.txArrFlit+n.arrByte(far)] |= arrFlit
}

// takeFlit takes the flit due this cycle at port record rp, whose
// arrival byte flagged it.
func (n *Network) takeFlit(rp int) linkFlit {
	slot := &n.linkFlits[rp*n.flitRing+n.rxFlit]
	f := *slot
	*slot = linkFlit{}
	return f
}

// sendCredit places a credit for VC vc on the inbound credit ring of
// the port at far, to arrive CreditLatency cycles from now, and flags
// its arrival byte.
func (n *Network) sendCredit(far portRef, vc int16) {
	slot := &n.linkCredits[int(far.slot)*n.credRing+n.txCred]
	if *slot != -1 {
		panic("noc: link credit slot collision")
	}
	*slot = vc
	n.arrivals[n.txArrCred+n.arrByte(far)] |= arrCred
}

// takeCredit takes the credit due this cycle at port record rp, whose
// arrival byte flagged it.
func (n *Network) takeCredit(rp int) int16 {
	slot := &n.linkCredits[rp*n.credRing+n.rxCred]
	vc := *slot
	*slot = -1
	return vc
}

// setSlots computes the ring and arrival slots of the cycle about to be
// stepped. A ring is one slot longer than the delay it carries, so the
// slot a send lands in is the one just behind the slot being received.
func (n *Network) setSlots() {
	now := n.cycle
	n.rxFlit = int(now % sim.Cycle(n.flitRing))
	n.txFlit = (n.rxFlit + n.flitRing - 1) % n.flitRing
	n.rxCred = int(now % sim.Cycle(n.credRing))
	n.txCred = (n.rxCred + n.credRing - 1) % n.credRing
	slot := n.routers * n.arrStride
	n.rxArr = int(now%sim.Cycle(n.arrSlots)) * slot
	n.txArrFlit = int((now+sim.Cycle(n.flitRing-1))%sim.Cycle(n.arrSlots)) * slot
	n.txArrCred = int((now+sim.Cycle(n.cfg.CreditLatency))%sim.Cycle(n.arrSlots)) * slot
}
