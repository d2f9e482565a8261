package noc

import (
	"fmt"
	"sort"

	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Checkpointing the cycle-level network has one structural problem:
// live *Packet values are shared by pointer across injection queues,
// VC buffers, link slots, delivery buffers, and (for the deflection
// router) the reassembly map — and the co-simulation layer keys its
// own maps by the same pointers. The state therefore holds a packet
// *table* — every live packet once, collected by a fixed deterministic
// traversal — and every other reference is an index into that table
// (offset by one so 0 means nil). Decoding, each table entry becomes
// one fresh Packet and all references are rewired to it, preserving
// the sharing structure exactly. The optional track callback hands
// every decoded packet to the caller so pointer-keyed client state
// (e.g. hybrid-mode latency predictions) can be rebuilt.

// State walks the packet's fields and, through pc, its opaque payload;
// with a nil codec every payload must be nil. It is the one
// description of a packet: every network that carries packets walks
// them with it.
func (p *Packet) State(c *snapshot.Codec, pc snapshot.PayloadCodec) {
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
	if p.Size < 1 {
		c.Failf("packet size %d < 1", p.Size)
	}
	if pc != nil {
		pc.Payload(c, &p.Payload)
	} else if p.Payload != nil {
		panic(fmt.Sprintf("noc: packet %v has a payload but no codec was supplied", p))
	}
}

// packetTable assigns dense indices to live packets in first-seen
// order. The map is keyed by pointer identity and is never iterated,
// so it cannot introduce nondeterminism; only encoding fills it.
type packetTable struct {
	list []*Packet
	idx  map[*Packet]uint32
}

func newPacketTable() *packetTable {
	return &packetTable{idx: make(map[*Packet]uint32)}
}

func (pt *packetTable) add(p *Packet) {
	if p == nil {
		return
	}
	if _, ok := pt.idx[p]; ok {
		return
	}
	pt.idx[p] = uint32(len(pt.list))
	pt.list = append(pt.list, p)
}

// addByID adds the keys of a packet-keyed map in packet-ID order.
func (pt *packetTable) addByID(m map[*Packet]int32) {
	res := make([]*Packet, 0, len(m))
	//simlint:allow maprange entries are sorted by packet ID before use
	for p := range m {
		res = append(res, p)
	}
	sort.Slice(res, func(i, j int) bool { return packetBefore(res[i], res[j]) })
	for _, p := range res {
		pt.add(p)
	}
}

func packetBefore(a, b *Packet) bool { return a.ID < b.ID }

// state walks the table itself. terminals/vnets bound the endpoint
// fields; track (optional) observes every decoded packet.
func (pt *packetTable) state(c *snapshot.Codec, pc snapshot.PayloadCodec, terminals, vnets int, track func(*Packet)) {
	c.Section("pkts")
	i := 0
	snapshot.Slice(c, &pt.list, 40, func(c *snapshot.Codec, pp **Packet) {
		if c.Decoding() {
			*pp = &Packet{}
		}
		p := *pp
		c.Enter("pkt", i)
		p.State(c, pc)
		if p.Src < 0 || p.Src >= terminals || p.Dst < 0 || p.Dst >= terminals {
			c.Failf("packet endpoints %d->%d out of range [0,%d)", p.Src, p.Dst, terminals)
		} else if p.VNet < 0 || p.VNet >= vnets {
			c.Failf("packet vnet %d out of range [0,%d)", p.VNet, vnets)
		} else if p.Class >= stats.NumClasses {
			c.Failf("packet class %d out of range", p.Class)
		}
		c.Leave()
		if c.Decoding() && c.Err() == nil && track != nil {
			track(p)
		}
		i++
	})
}

// ref walks a reference to a table packet: its index + 1, or 0 for nil.
func (pt *packetTable) ref(c *snapshot.Codec, p **Packet) {
	var ref uint32
	if !c.Decoding() && *p != nil {
		i, ok := pt.idx[*p]
		if !ok {
			panic(fmt.Sprintf("noc: snapshot traversal missed live packet %v", *p))
		}
		ref = i + 1
	}
	if c.U32(&ref); !c.Decoding() {
		return
	}
	if *p = nil; int(ref) > len(pt.list) {
		c.Failf("packet reference %d exceeds table size %d", ref, len(pt.list))
	} else if ref != 0 && c.Err() == nil {
		*p = pt.list[ref-1]
	}
}

// live walks a reference that must name a packet; where says what
// holds it.
func (pt *packetTable) live(c *snapshot.Codec, p **Packet, where string) {
	if pt.ref(c, p); *p == nil {
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
// link, in that nesting. pc describes packet payloads; pass nil when
// all payloads are nil. The target of a decode is a network
// constructed with the same configuration, topology, and routing;
// track (optional) is invoked once for every decoded live packet.
func (n *Network) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*Packet)) {
	c.Section("noc")
	snapshot.Match(c, (*snapshot.Codec).Int, n.routers, "network routers")
	snapshot.Match(c, (*snapshot.Codec).Int, n.ports, "network ports")
	snapshot.Match(c, (*snapshot.Codec).Int, n.vcs, "network VCs")
	snapshot.Match(c, (*snapshot.Codec).Int, len(n.ifaces), "network terminals")
	snapshot.Match(c, (*snapshot.Codec).Int, n.cfg.VNets, "network vnets")
	if c.Err() != nil {
		return
	}

	pt := newPacketTable()
	if !c.Decoding() {
		for t := range n.ifaces {
			ni := &n.ifaces[t]
			for v := range ni.queues {
				for _, p := range ni.queues[v][ni.qHead[v]:] {
					pt.add(p)
				}
			}
			pt.add(ni.cur)
			for _, p := range ni.deliveries[ni.dHead:] {
				pt.add(p)
			}
		}
		for i := range n.vcCount {
			for k := 0; k < int(n.vcCount[i]); k++ {
				pt.add(n.fifoAt(i, k).pkt)
			}
		}
		for i := range n.linkFlits {
			pt.add(n.linkFlits[i].pkt)
		}
	}
	pt.state(c, pc, len(n.ifaces), n.cfg.VNets, track)

	snapshot.As64(c, &n.cycle)
	c.U64(&n.injected)
	c.U64(&n.delivered)
	c.U64(&n.nextID)
	n.tracker.State(c)

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
		// slot-for-slot.
		c.Enter("link", rp/n.ports, rp%n.ports)
		ring := n.linkFlits[rp*n.flitRing:][:n.flitRing]
		for i := range ring {
			f := &ring[i]
			pt.ref(c, &f.pkt)
			snapshot.As32(c, &f.seq)
			snapshot.As16(c, &f.vc)
		}
		credits := n.creditRingOf(rp)
		for i := range credits {
			snapshot.As64(c, &credits[i])
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
		fifo(c, &ni.queues[v], &ni.qHead[v], 4, func(c *snapshot.Codec, p **Packet) {
			pt.live(c, p, "injection queue")
		})
	}
	c.Int(&ni.rr)
	pt.ref(c, &ni.cur)
	snapshot.As32(c, &ni.curSeq)
	snapshot.As16(c, &ni.curVC)
	for i := range ni.credits {
		snapshot.As64(c, &ni.credits[i])
	}
	for i := range ring {
		snapshot.As64(c, &ring[i])
	}
	fifo(c, &ni.deliveries, &ni.dHead, 4, func(c *snapshot.Codec, p **Packet) {
		pt.live(c, p, "delivery buffer")
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
			pt.live(c, &f.pkt, "VC buffer")
			snapshot.As32(c, &f.seq)
			snapshot.As64(c, &f.ready)
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
			snapshot.As64(c, &hops[k].port)
			snapshot.As64(c, &hops[k].set)
		}
		snapshot.As64(c, &n.vcOutPort[i])
		snapshot.As64(c, &n.vcOutVC[i])
	}
	for i := r * n.pv; i < (r+1)*n.pv; i++ {
		snapshot.As64(c, &n.outCredits[i])
		snapshot.As64(c, &n.outOwner[i])
		if n.outOwner[i] >= int32(n.pv) {
			c.Failf("output VC %d owner %d out of range", i-r*n.pv, n.outOwner[i])
		}
	}
	// The round-robin pointers feed mask shifts and index math, so
	// each must lie in the range its arbiter leaves it in.
	ports := func(name string, vals []int32, limit int) {
		for p := r * n.ports; p < (r+1)*n.ports; p++ {
			snapshot.As64(c, &vals[p])
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

// creditRingOf returns the ring that carries the credits port record rp
// returns for its input buffers — the wire format files it under the
// returning port, while the ring itself is inbound at the far end.
func (n *Network) creditRingOf(rp int) []int16 {
	return n.linkCredits[int(n.peer[rp].slot)*n.credRing:][:n.credRing]
}

// State walks the deflection network's mutable state: the packet
// table, per-router arrival slots (the staging slots are empty between
// Steps), per-NI source queues, reassembly counters, and delivery
// buffers, plus the clock and statistics. pc describes payloads; nil
// requires all payloads nil. The target of a decode is a deflection
// network constructed with the same configuration and topology; track
// (optional) observes every decoded packet.
func (n *Deflection) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*Packet)) {
	c.Section("deflect")
	snapshot.Match(c, (*snapshot.Codec).Int, len(n.routers), "deflection routers")
	snapshot.Match(c, (*snapshot.Codec).Int, len(n.ifaces), "deflection terminals")
	if c.Err() != nil {
		return
	}

	pt := newPacketTable()
	if !c.Decoding() {
		for t := range n.ifaces {
			ni := &n.ifaces[t]
			for _, f := range ni.queue[ni.qHead:] {
				pt.add(f.pkt)
			}
			for _, p := range ni.deliveries[ni.dHead:] {
				pt.add(p)
			}
		}
		for r := range n.routers {
			for _, f := range n.routers[r].in {
				pt.add(f.pkt)
			}
		}
		// Packets mid-reassembly may have every remaining flit in
		// flight (already collected) or be referenced only here.
		for t := range n.ifaces {
			pt.addByID(n.ifaces[t].reassembly)
		}
	}
	pt.state(c, pc, len(n.ifaces), 1<<30, track)

	snapshot.As64(c, &n.cycle)
	c.U64(&n.injected)
	c.U64(&n.delivered)
	c.U64(&n.nextID)
	n.tracker.State(c)

	c.Section("difaces")
	for t := range n.ifaces {
		c.Enter("diface", t)
		n.ifaces[t].state(c, pt)
		c.Leave()
		if c.Err() != nil {
			return
		}
	}

	c.Section("drouters")
	for r := range n.routers {
		c.Enter("drouter", r)
		n.routers[r].state(c, pt)
		c.Leave()
	}
	if c.Decoding() && c.Err() == nil {
		n.rederive()
	}
}

func (f *deflFlit) state(c *snapshot.Codec, pt *packetTable) {
	pt.ref(c, &f.pkt)
	snapshot.As32(c, &f.seq)
	snapshot.As64(c, &f.age)
}

func (ni *deflIface) state(c *snapshot.Codec, pt *packetTable) {
	fifo(c, &ni.queue, &ni.qHead, 20, func(c *snapshot.Codec, f *deflFlit) {
		if f.state(c, pt); f.pkt == nil {
			c.Failf("nil packet in source queue")
		}
	})
	snapshot.MapBy(c, &ni.reassembly, 8, packetBefore, func(c *snapshot.Codec, p **Packet, got *int32) {
		pt.live(c, p, "reassembly entry")
		snapshot.As32(c, got)
		if *p != nil && (*got < 1 || int(*got) >= (*p).Size) {
			c.Failf("reassembly count %d out of range for %d-flit packet", *got, (*p).Size)
		}
	})
	fifo(c, &ni.deliveries, &ni.dHead, 4, func(c *snapshot.Codec, p **Packet) {
		pt.live(c, p, "delivery buffer")
	})
}

func (rt *deflRouter) state(c *snapshot.Codec, pt *packetTable) {
	for d := range rt.in {
		rt.in[d].state(c, pt)
	}
	c.U64(&rt.deflects)
	c.U64(&rt.flitHops)
	c.U64(&rt.ejects)
}
