package noc

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Checkpointing the cycle-level network: a live packet is named by its
// handle from injection queues, VC buffers, link slots and delivery
// buffers, and the co-simulation layer keys its own maps by the
// packet's pointer. The state holds a packet *table* — every live
// packet once, collected by a fixed deterministic traversal — and
// every other reference is an index into that table (offset by one so
// 0 means none). Handles are derived: the table is written in
// traversal order whatever the handles, and decoding gives table
// packet i, one fresh Packet, handle i+1, so a reference on the wire
// is the handle it decodes to. The optional track callback hands every
// decoded packet to the caller so pointer-keyed client state (e.g.
// hybrid-mode latency predictions) can be rebuilt, and so the client
// can check the payload it reads.

// State walks the packet's fields, its payload included. It is the one
// description of a packet: every network that carries packets walks
// them with it.
func (p *Packet) State(c *snapshot.Codec) {
	c.U64(&p.ID)
	c.Int(&p.Src)
	c.Int(&p.Dst)
	c.Int(&p.VNet)
	snapshot.As8(c, &p.Class)
	c.Int(&p.Size)
	snapshot.As64(c, &p.CreatedAt)
	snapshot.As64(c, &p.InjectedAt)
	snapshot.As64(c, &p.DeliveredAt)
	c.Int(&p.Hops)
	c.U8(&p.Kind)
	c.U64(&p.Line)
	c.U64(&p.Value)
	if p.Size < 1 {
		c.Failf("packet size %d < 1", p.Size)
	}
}

// packetTable lists live packets in first-seen order. Encoding, idx
// maps a handle to its table index + 1 (0 while unlisted).
type packetTable struct {
	list []*Packet
	idx  []uint32
}

// listPacket lists the packet with handle h (0 for none), its hop
// count written from the column, unless it is listed already.
func (n *Network) listPacket(pt *packetTable, h uint32) {
	if h == 0 || pt.idx[h] != 0 {
		return
	}
	p := n.pkts[h]
	p.Hops = int(n.hopCnt[h])
	pt.list = append(pt.list, p)
	pt.idx[h] = uint32(len(pt.list))
}

// adopt makes the decoded table the network's packet table: packet i
// gets handle i+1, its columns filled from its fields, and no handle
// is free.
func (n *Network) adopt(list []*Packet) {
	n.pkts = append(n.pkts[:1], list...)
	n.keys = n.keys[:1]
	n.hopCnt = n.hopCnt[:1]
	for _, p := range list {
		n.keys = append(n.keys, routeKey{src: int32(p.Src), dst: int32(p.Dst)})
		n.hopCnt = append(n.hopCnt, int32(p.Hops))
	}
	n.free = n.free[:0]
}

// state walks the table itself. terminals/vnets bound the endpoint
// fields; track (optional) observes every decoded packet, inside the
// packet's decode context, and may reject it.
func (pt *packetTable) state(c *snapshot.Codec, terminals, vnets int, track func(*Packet)) {
	c.Section("pkts")
	i := 0
	snapshot.Slice(c, &pt.list, 40, func(c *snapshot.Codec, pp **Packet) {
		if c.Decoding() {
			*pp = &Packet{}
		}
		p := *pp
		c.Enter("pkt", i)
		p.State(c)
		if p.Src < 0 || p.Src >= terminals || p.Dst < 0 || p.Dst >= terminals {
			c.Failf("packet endpoints %d->%d out of range [0,%d)", p.Src, p.Dst, terminals)
		} else if p.VNet < 0 || p.VNet >= vnets {
			c.Failf("packet vnet %d out of range [0,%d)", p.VNet, vnets)
		} else if p.Class >= stats.NumClasses {
			c.Failf("packet class %d out of range", p.Class)
		}
		if c.Decoding() && c.Err() == nil && track != nil {
			track(p)
		}
		c.Leave()
		i++
	})
}

// ref walks a packet handle as a reference to its table packet: its
// index + 1, or 0 for none. Decoding, the reference is the handle.
func (pt *packetTable) ref(c *snapshot.Codec, h *uint32) {
	var ref uint32
	if !c.Decoding() && *h != 0 {
		if ref = pt.idx[*h]; ref == 0 {
			panic(fmt.Sprintf("noc: snapshot traversal missed live packet handle %d", *h))
		}
	}
	if c.U32(&ref); !c.Decoding() {
		return
	}
	if *h = 0; int(ref) > len(pt.list) {
		c.Failf("packet reference %d exceeds table size %d", ref, len(pt.list))
	} else if c.Err() == nil {
		*h = ref
	}
}

// live walks a reference that must name a packet; where says what
// holds it.
func (pt *packetTable) live(c *snapshot.Codec, h *uint32, where string) {
	if pt.ref(c, h); *h == 0 {
		c.Failf("nil packet in %s", where)
	}
}

// fifo walks the live part of a slice-backed FIFO, buf[head:];
// decoding re-seats it at the start of buf (the consumed prefix is
// unobservable).
func fifo[T any](c *snapshot.Codec, buf *[]T, head *int, perItemMin int, elem func(*snapshot.Codec, *T)) {
	if c.Decoding() {
		*buf, *head = (*buf)[:0], 0
	}
	live := (*buf)[*head:]
	if snapshot.Slice(c, &live, perItemMin, elem); c.Decoding() {
		*buf = live
	}
}

// State walks the complete mutable state of the network: the
// live-packet table, every NI, every router (input VC buffers and
// allocation state, output VC credits and ownership, persistent
// round-robin pointers, counters), and every link's flit and credit
// ring slots by index. Per-cycle scratch (allocation bids, drain
// buffer), the VC masks and the wake schedule are not part of it:
// rederive rebuilds them when a decode succeeds. The wire format
// predates the flat state layout and is organised by router, VC and
// link, in that nesting. The target of a decode is a network
// constructed with the same configuration, topology, and routing;
// track (optional) is invoked once for every decoded live packet.
func (n *Network) State(c *snapshot.Codec, track func(*Packet)) {
	c.Section("noc")
	snapshot.Match(c, (*snapshot.Codec).Int, n.routers, "network routers")
	snapshot.Match(c, (*snapshot.Codec).Int, n.ports, "network ports")
	snapshot.Match(c, (*snapshot.Codec).Int, n.vcs, "network VCs")
	snapshot.Match(c, (*snapshot.Codec).Int, len(n.ifaces), "network terminals")
	snapshot.Match(c, (*snapshot.Codec).Int, n.cfg.VNets, "network vnets")
	if c.Err() != nil {
		return
	}

	pt := &packetTable{}
	if !c.Decoding() {
		n.settle()
		pt.idx = make([]uint32, len(n.pkts))
		for t := range n.ifaces {
			ni := &n.ifaces[t]
			for v := range ni.queues {
				for _, h := range ni.queues[v][ni.qHead[v]:] {
					n.listPacket(pt, h)
				}
			}
			n.listPacket(pt, ni.cur)
			for _, h := range ni.deliveries[ni.dHead:] {
				n.listPacket(pt, h)
			}
		}
		for i := range n.vcCount {
			for k := 0; k < int(n.vcCount[i]); k++ {
				n.listPacket(pt, n.fifoAt(i, k).handle())
			}
		}
		for rp := range n.peer {
			for j := 0; j <= n.cfg.LinkLatency; j++ {
				n.listPacket(pt, n.linkFlits[rp*n.flitRing+n.wireSlot(j)].ref&^tailBit)
			}
		}
	}
	pt.state(c, len(n.ifaces), n.cfg.VNets, track)
	if c.Decoding() {
		n.adopt(pt.list)
	}

	n.Ledger.State(c, &n.cycle)

	c.Section("ifaces")
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		c.Enter("iface", t)
		ni.state(c, pt, n.creditRingOf(ni.router*n.ports+ni.localPort), n.cfg.VNets)
		c.Leave()
		if c.Err() != nil {
			return
		}
	}

	c.Section("routers")
	for r := 0; r < n.routers; r++ {
		c.Enter("router", r)
		n.routerState(c, pt, r)
		c.Leave()
		if c.Err() != nil {
			return
		}
	}

	c.Section("links")
	for rp := range n.peer {
		if !n.linked(rp) {
			continue
		}
		// Ring slots are indexed by absolute cycle modulo ring size;
		// the clock is part of the state too, so positions are kept
		// slot-for-slot, in the LinkLatency+1 slots of a ring indexed
		// by arrival cycle (see wireSlot).
		c.Enter("link", rp/n.ports, rp%n.ports)
		ring := n.linkFlits[rp*n.flitRing:][:n.flitRing]
		if c.Decoding() {
			clear(ring)
		}
		for j := 0; j <= n.cfg.LinkLatency; j++ {
			f := &ring[n.wireSlot(j)]
			h := f.ref &^ tailBit
			pt.ref(c, &h)
			snapshot.As32(c, &f.seq)
			snapshot.As16(c, &f.vc)
			if c.Decoding() {
				f.ref = n.refOf(h, f.seq)
			}
		}
		credits := n.creditRingOf(rp)
		for i := range credits {
			snapshot.As16(c, &credits[i])
		}
		c.Leave()
	}
	if c.Decoding() && c.Err() == nil {
		n.rederive()
	}
}

// state walks one NI. ring is the credit ring of its local port, which
// the wire format files with it.
func (ni *Iface) state(c *snapshot.Codec, pt *packetTable, ring []int16, vnets int) {
	for v := range ni.queues {
		fifo(c, &ni.queues[v], &ni.qHead[v], 4, func(c *snapshot.Codec, h *uint32) {
			pt.live(c, h, "injection queue")
		})
	}
	c.Int(&ni.rr)
	pt.ref(c, &ni.cur)
	snapshot.As32(c, &ni.curSeq)
	snapshot.As16(c, &ni.curVC)
	for i := range ni.credits {
		snapshot.As32(c, &ni.credits[i])
	}
	for i := range ring {
		snapshot.As16(c, &ring[i])
	}
	fifo(c, &ni.deliveries, &ni.dHead, 4, func(c *snapshot.Codec, h *uint32) {
		pt.live(c, h, "delivery buffer")
	})
	c.U64(&ni.injectedPkts)
	c.U64(&ni.injectedFlits)
	if ni.rr < 0 || ni.rr >= vnets {
		c.Failf("iface rr pointer %d out of range", ni.rr)
	}
}

// routerState walks router r's records of the flat per-field arrays.
func (n *Network) routerState(c *snapshot.Codec, pt *packetTable, r int) {
	for i := r * n.pv; i < (r+1)*n.pv; i++ {
		cnt := c.Len(int(n.vcCount[i]), 16)
		if cnt > n.depth {
			c.Failf("VC buffer holds %d flits, capacity %d", cnt, n.depth)
			return
		}
		if c.Decoding() {
			// FIFO contents are re-seated from slot 0: the head offset
			// is unobservable, only entry order matters.
			n.vcHead[i], n.vcCount[i] = 0, int32(cnt)
			clear(n.flits[i*n.depth : (i+1)*n.depth])
		}
		for k := 0; k < cnt; k++ {
			f := n.fifoAt(i, k)
			h := f.handle()
			pt.live(c, &h, "VC buffer")
			snapshot.As32(c, &f.seq)
			snapshot.As64(c, &f.ready)
			if c.Decoding() {
				f.ref = n.refOf(h, f.seq)
			}
		}
		if c.U8(&n.vcState[i]); n.vcState[i] > vcActive {
			c.Failf("input VC state %d out of range", n.vcState[i])
		}
		nh := c.Len(int(n.vcHops[i]), 2)
		if nh > maxHops {
			c.Failf("input VC caches %d next hops, limit %d", nh, maxHops)
			return
		}
		if c.Decoding() {
			n.vcHops[i] = uint8(nh)
		}
		hops := n.hops[i*maxHops:][:nh]
		for k := range hops {
			snapshot.As16(c, &hops[k].port)
			snapshot.As16(c, &hops[k].set)
		}
		snapshot.As16(c, &n.vcOutPort[i])
		snapshot.As16(c, &n.vcOutVC[i])
	}
	for i := r * n.pv; i < (r+1)*n.pv; i++ {
		snapshot.As32(c, &n.outCredits[i])
		snapshot.As32(c, &n.outOwner[i])
		if n.outOwner[i] >= int32(n.pv) {
			c.Failf("output VC %d owner %d out of range", i-r*n.pv, n.outOwner[i])
		}
	}
	// The round-robin pointers feed mask shifts and index math, so
	// each must lie in the range its arbiter leaves it in.
	ports := func(name string, vals []int32, limit int) {
		for p := r * n.ports; p < (r+1)*n.ports; p++ {
			snapshot.As32(c, &vals[p])
			if vals[p] < 0 || int(vals[p]) > limit {
				c.Failf("%s pointer %d out of range [0,%d]", name, vals[p], limit)
			}
		}
	}
	ports("VA", n.vaPtr, n.pv-1)
	ports("SA input", n.saInPtr, n.vcs)
	ports("SA output", n.saOutPtr, n.ports)
	for p := r * n.ports; p < (r+1)*n.ports; p++ {
		c.U64(&n.outFlits[p])
	}
	c.U64(&n.bufWrites[r])
	c.U64(&n.bufReads[r])
	c.U64(&n.arbGrants[r])
}

// wireSlot maps slot j of the wire's link ring — LinkLatency+1 slots,
// a flit at slot (its arrival cycle) mod LinkLatency+1 — to the slot of
// the flit ring, indexed by the flit's ingest cycle, RouterStages-1
// cycles after its arrival. Encoding has settled every flit that
// arrived before the clock (the wire holds them in their buffers), so
// each flit left on a ring arrives at or after it.
func (n *Network) wireSlot(j int) int {
	at := ringArrival(n.cycle, j, n.cfg.LinkLatency+1) + sim.Cycle(n.cfg.RouterStages-1)
	return int(at % sim.Cycle(n.flitRing))
}

// creditRingOf returns the ring that carries the credits port record rp
// returns for its input buffers — the wire format files it under the
// returning port, while the ring itself is inbound at the far end.
func (n *Network) creditRingOf(rp int) []int16 {
	return n.linkCredits[int(n.peer[rp].slot)*n.credRing:][:n.credRing]
}
