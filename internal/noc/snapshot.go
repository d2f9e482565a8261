package noc

import (
	"fmt"
	"sort"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// Checkpointing the cycle-level network has one structural problem:
// live *Packet values are shared by pointer across injection queues,
// VC buffers, link slots, delivery buffers, and (for the deflection
// router) the reassembly map — and the co-simulation layer keys its
// own maps by the same pointers. The snapshot therefore serializes a
// packet *table* — every live packet once, collected by a fixed
// deterministic traversal — and every other reference becomes an index
// into that table (offset by one so 0 means nil). On restore each
// table entry becomes one fresh Packet and all references are rewired
// to it, preserving the sharing structure exactly. The optional track
// callback hands every restored packet to the caller so pointer-keyed
// client state (e.g. hybrid-mode latency predictions) can be rebuilt.

// packetTable assigns dense indices to live packets in first-seen
// order. The map is keyed by pointer identity and is never iterated,
// so it cannot introduce nondeterminism.
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

// ref returns the wire reference for p: table index + 1, or 0 for nil.
func (pt *packetTable) ref(p *Packet) uint32 {
	if p == nil {
		return 0
	}
	i, ok := pt.idx[p]
	if !ok {
		panic(fmt.Sprintf("noc: snapshot traversal missed live packet %v", p))
	}
	return i + 1
}

// encodePacketTable writes the table. pc (optional) serializes each
// packet's opaque payload; with a nil codec every payload must be nil.
func encodePacketTable(e *snapshot.Encoder, pt *packetTable, pc snapshot.PayloadCodec) {
	e.Section("pkts")
	e.U32(uint32(len(pt.list)))
	for _, p := range pt.list {
		e.U64(p.ID)
		e.Int(p.Src)
		e.Int(p.Dst)
		e.Int(p.VNet)
		e.U8(uint8(p.Class))
		e.Int(p.Size)
		e.U64(uint64(p.CreatedAt))
		e.U64(uint64(p.InjectedAt))
		e.U64(uint64(p.DeliveredAt))
		e.Int(p.Hops)
		if pc != nil {
			pc.EncodePayload(e, p.Payload)
		} else if p.Payload != nil {
			panic(fmt.Sprintf("noc: packet %v has a payload but no codec was supplied", p))
		}
	}
}

// decodePacketTable rebuilds the table. terminals/vnets bound the
// endpoint fields; track (optional) observes every restored packet.
func decodePacketTable(d *snapshot.Decoder, pc snapshot.PayloadCodec,
	terminals, vnets int, track func(*Packet)) []*Packet {
	d.Section("pkts")
	n := d.Count(40)
	pkts := make([]*Packet, 0, n)
	for i := 0; i < n; i++ {
		d.Enter(fmt.Sprintf("pkt[%d]", i))
		p := &Packet{
			ID:          d.U64(),
			Src:         d.Int(),
			Dst:         d.Int(),
			VNet:        d.Int(),
			Class:       stats.LatencyClass(d.U8()),
			Size:        d.Int(),
			CreatedAt:   sim.Cycle(d.U64()),
			InjectedAt:  sim.Cycle(d.U64()),
			DeliveredAt: sim.Cycle(d.U64()),
			Hops:        d.Int(),
		}
		if d.Err() == nil {
			if p.Src < 0 || p.Src >= terminals || p.Dst < 0 || p.Dst >= terminals {
				d.Failf("packet endpoints %d->%d out of range [0,%d)", p.Src, p.Dst, terminals)
			} else if p.VNet < 0 || p.VNet >= vnets {
				d.Failf("packet vnet %d out of range [0,%d)", p.VNet, vnets)
			} else if p.Size < 1 {
				d.Failf("packet size %d < 1", p.Size)
			} else if p.Class >= stats.NumClasses {
				d.Failf("packet class %d out of range", p.Class)
			}
		}
		if pc != nil && d.Err() == nil {
			pl, err := pc.DecodePayload(d)
			if err != nil {
				d.Leave()
				return pkts
			}
			p.Payload = pl
		}
		d.Leave()
		if d.Err() != nil {
			return pkts
		}
		if track != nil {
			track(p)
		}
		pkts = append(pkts, p)
	}
	return pkts
}

// resolveRef maps a wire reference back to a restored packet.
func resolveRef(d *snapshot.Decoder, pkts []*Packet) *Packet {
	ref := d.U32()
	if d.Err() != nil || ref == 0 {
		return nil
	}
	if int(ref) > len(pkts) {
		d.Failf("packet reference %d exceeds table size %d", ref, len(pkts))
		return nil
	}
	return pkts[ref-1]
}

// SnapshotTo writes the complete mutable state of the network: the
// live-packet table, every NI, every router (input VC buffers and
// allocation state, output VC credits and ownership, persistent
// round-robin pointers, counters), and every link's flit and credit
// ring slots by index. Per-cycle scratch (allocation bids, drain
// buffer) and the VC masks are recomputed and not written. The wire
// format predates the flat state layout and is organised by router, VC
// and link, in that nesting. pc serializes packet payloads; pass nil
// when all payloads are nil.
func (n *Network) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	e.Section("noc")
	R := n.routers
	e.Int(R)
	e.Int(n.ports)
	e.Int(n.vcs)
	e.Int(len(n.ifaces))
	e.Int(n.cfg.VNets)

	pt := newPacketTable()
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		for v := range ni.queues {
			for i := ni.qHead[v]; i < len(ni.queues[v]); i++ {
				pt.add(ni.queues[v][i])
			}
		}
		pt.add(ni.cur)
		for i := ni.dHead; i < len(ni.deliveries); i++ {
			pt.add(ni.deliveries[i])
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
	encodePacketTable(e, pt, pc)

	e.U64(uint64(n.cycle))
	e.U64(n.injected)
	e.U64(n.delivered)
	e.U64(n.nextID)
	n.tracker.SnapshotTo(e)

	e.Section("ifaces")
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		for v := range ni.queues {
			e.U32(uint32(len(ni.queues[v]) - ni.qHead[v]))
			for i := ni.qHead[v]; i < len(ni.queues[v]); i++ {
				e.U32(pt.ref(ni.queues[v][i]))
			}
		}
		e.Int(ni.rr)
		e.U32(pt.ref(ni.cur))
		e.U32(uint32(ni.curSeq))
		e.U16(uint16(ni.curVC))
		for _, c := range ni.credits {
			e.I64(int64(c))
		}
		for _, c := range n.creditRingOf(ni.router*n.ports + ni.localPort) {
			e.I64(int64(c))
		}
		e.U32(uint32(len(ni.deliveries) - ni.dHead))
		for i := ni.dHead; i < len(ni.deliveries); i++ {
			e.U32(pt.ref(ni.deliveries[i]))
		}
		e.U64(ni.injectedPkts)
		e.U64(ni.injectedFlits)
	}

	e.Section("routers")
	for r := 0; r < R; r++ {
		for i := r * n.pv; i < (r+1)*n.pv; i++ {
			e.U32(uint32(n.vcCount[i]))
			for k := 0; k < int(n.vcCount[i]); k++ {
				f := n.fifoAt(i, k)
				e.U32(pt.ref(f.pkt))
				e.U32(uint32(f.seq))
				e.U64(uint64(f.ready))
			}
			e.U8(n.vcState[i])
			e.U32(uint32(n.vcHops[i]))
			for _, h := range n.hops[i*maxHops:][:n.vcHops[i]] {
				e.Int(int(h.port))
				e.Int(int(h.set))
			}
			e.I64(int64(n.vcOutPort[i]))
			e.I64(int64(n.vcOutVC[i]))
		}
		for i := r * n.pv; i < (r+1)*n.pv; i++ {
			e.I64(int64(n.outCredits[i]))
			e.I64(int64(n.outOwner[i]))
		}
		ports := func(vals []int32) {
			for _, v := range vals[r*n.ports : (r+1)*n.ports] {
				e.I64(int64(v))
			}
		}
		ports(n.vaPtr)
		ports(n.saInPtr)
		ports(n.saOutPtr)
		for _, v := range n.outFlits[r*n.ports : (r+1)*n.ports] {
			e.U64(v)
		}
		e.U64(n.bufWrites[r])
		e.U64(n.bufReads[r])
		e.U64(n.arbGrants[r])
	}

	e.Section("links")
	for rp := range n.peer {
		if !n.linked(rp) {
			continue
		}
		// Ring slots are indexed by absolute cycle modulo ring
		// size; the clock is restored too, so positions must be
		// preserved slot-for-slot.
		for _, f := range n.linkFlits[rp*n.flitRing:][:n.flitRing] {
			e.U32(pt.ref(f.pkt))
			e.U32(uint32(f.seq))
			e.U16(uint16(f.vc))
		}
		for _, c := range n.creditRingOf(rp) {
			e.I64(int64(c))
		}
	}
}

// creditRingOf returns the ring that carries the credits port record rp
// returns for its input buffers — the wire format files it under the
// returning port, while the ring itself is inbound at the far end.
func (n *Network) creditRingOf(rp int) []int16 {
	return n.linkCredits[int(n.peer[rp].slot)*n.credRing:][:n.credRing]
}

// RestoreFrom rebuilds the state written by SnapshotTo into a network
// constructed with the same configuration, topology, and routing.
// track (optional) is invoked once for every restored live packet.
func (n *Network) RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*Packet)) error {
	d.Section("noc")
	R := n.routers
	for _, g := range []struct {
		name string
		want int
	}{
		{"routers", R},
		{"ports", n.ports},
		{"VCs", n.vcs},
		{"terminals", len(n.ifaces)},
		{"vnets", n.cfg.VNets},
	} {
		if got := d.Int(); d.Err() == nil && got != g.want {
			d.Failf("network geometry mismatch: snapshot has %d %s, target has %d", got, g.name, g.want)
		}
	}
	if d.Err() != nil {
		return d.Err()
	}

	pkts := decodePacketTable(d, pc, len(n.ifaces), n.cfg.VNets, track)
	if d.Err() != nil {
		return d.Err()
	}

	n.cycle = sim.Cycle(d.U64())
	n.injected = d.U64()
	n.delivered = d.U64()
	n.nextID = d.U64()
	if err := n.tracker.RestoreFrom(d); err != nil {
		return err
	}

	d.Section("ifaces")
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		d.Enter(fmt.Sprintf("iface[%d]", t))
		for v := range ni.queues {
			cnt := d.Count(4)
			ni.queues[v] = ni.queues[v][:0]
			ni.qHead[v] = 0
			for i := 0; i < cnt; i++ {
				p := resolveRef(d, pkts)
				if d.Err() != nil {
					d.Leave()
					return d.Err()
				}
				if p == nil {
					d.Failf("nil packet in injection queue %d[%d]", v, i)
					d.Leave()
					return d.Err()
				}
				ni.queues[v] = append(ni.queues[v], p)
			}
		}
		ni.queued = ni.pending() // derived, not serialized
		ni.rr = d.Int()
		ni.cur = resolveRef(d, pkts)
		ni.curSeq = int32(d.U32())
		ni.curVC = int16(d.U16())
		for i := range ni.credits {
			ni.credits[i] = int32(d.I64())
		}
		ring := n.creditRingOf(ni.router*n.ports + ni.localPort)
		for i := range ring {
			ring[i] = int16(d.I64())
		}
		cnt := d.Count(4)
		ni.deliveries = ni.deliveries[:0]
		ni.dHead = 0
		for i := 0; i < cnt; i++ {
			p := resolveRef(d, pkts)
			if p == nil && d.Err() == nil {
				d.Failf("nil packet in delivery buffer slot %d", i)
			}
			if d.Err() != nil {
				d.Leave()
				return d.Err()
			}
			ni.deliveries = append(ni.deliveries, p)
		}
		ni.injectedPkts = d.U64()
		ni.injectedFlits = d.U64()
		if d.Err() == nil && (ni.rr < 0 || ni.rr >= n.cfg.VNets) {
			d.Failf("iface rr pointer %d out of range", ni.rr)
		}
		d.Leave()
		if d.Err() != nil {
			return d.Err()
		}
	}

	d.Section("routers")
	for r := 0; r < R; r++ {
		d.Enter(fmt.Sprintf("router[%d]", r))
		for i := r * n.pv; i < (r+1)*n.pv; i++ {
			cnt := d.Count(16)
			if d.Err() == nil && cnt > n.depth {
				d.Failf("VC buffer holds %d flits, capacity %d", cnt, n.depth)
			}
			if d.Err() != nil {
				d.Leave()
				return d.Err()
			}
			// FIFO contents are re-seated from slot 0: the head offset
			// is unobservable, only entry order matters.
			n.vcHead[i] = 0
			n.vcCount[i] = int32(cnt)
			fifo := n.flits[i*n.depth : (i+1)*n.depth]
			clear(fifo)
			for k := 0; k < cnt; k++ {
				fifo[k] = flitEntry{
					pkt:   resolveRef(d, pkts),
					seq:   int32(d.U32()),
					ready: sim.Cycle(d.U64()),
				}
				if fifo[k].pkt == nil && d.Err() == nil {
					d.Failf("nil packet in VC buffer %d slot %d", i-r*n.pv, k)
				}
				if d.Err() != nil {
					d.Leave()
					return d.Err()
				}
			}
			n.vcState[i] = d.U8()
			if d.Err() == nil && n.vcState[i] > vcActive {
				d.Failf("input VC state %d out of range", n.vcState[i])
				d.Leave()
				return d.Err()
			}
			nh := d.Count(2)
			if d.Err() == nil && nh > maxHops {
				d.Failf("input VC caches %d next hops, limit %d", nh, maxHops)
			}
			if d.Err() != nil {
				d.Leave()
				return d.Err()
			}
			n.vcHops[i] = uint8(nh)
			for k := 0; k < nh; k++ {
				n.hops[i*maxHops+k] = hop{port: int16(d.Int()), set: int16(d.Int())}
			}
			n.vcOutPort[i] = int16(d.I64())
			n.vcOutVC[i] = int16(d.I64())
		}
		for i := r * n.pv; i < (r+1)*n.pv; i++ {
			n.outCredits[i] = int32(d.I64())
			n.outOwner[i] = int32(d.I64())
			if d.Err() == nil && n.outOwner[i] >= int32(n.pv) {
				d.Failf("output VC %d owner %d out of range", i-r*n.pv, n.outOwner[i])
				d.Leave()
				return d.Err()
			}
		}
		// The round-robin pointers feed mask shifts and index math, so
		// each must lie in the range its arbiter leaves it in.
		ports := func(name string, vals []int32, limit int) {
			for p := r * n.ports; p < (r+1)*n.ports; p++ {
				vals[p] = int32(d.I64())
				if d.Err() == nil && (vals[p] < 0 || int(vals[p]) > limit) {
					d.Failf("%s pointer %d out of range [0,%d]", name, vals[p], limit)
				}
			}
		}
		ports("VA", n.vaPtr, n.pv-1)
		ports("SA input", n.saInPtr, n.vcs)
		ports("SA output", n.saOutPtr, n.ports)
		for p := r * n.ports; p < (r+1)*n.ports; p++ {
			n.outFlits[p] = d.U64()
		}
		n.bufWrites[r] = d.U64()
		n.bufReads[r] = d.U64()
		n.arbGrants[r] = d.U64()
		d.Leave()
		if d.Err() != nil {
			return d.Err()
		}
	}
	// The masks are derived, not serialized.
	for rw := range n.masks {
		n.masks[rw] = n.recountMask(rw)
	}

	d.Section("links")
	for rp := range n.peer {
		if !n.linked(rp) {
			continue
		}
		d.Enter(fmt.Sprintf("link[%d,%d]", rp/n.ports, rp%n.ports))
		ring := n.linkFlits[rp*n.flitRing:][:n.flitRing]
		for i := range ring {
			ring[i] = linkFlit{
				pkt: resolveRef(d, pkts),
				seq: int32(d.U32()),
				vc:  int16(d.U16()),
			}
		}
		credits := n.creditRingOf(rp)
		for i := range credits {
			credits[i] = int16(d.I64())
		}
		d.Leave()
		if d.Err() != nil {
			return d.Err()
		}
	}
	n.drainBuf = n.drainBuf[:0]
	if d.Err() == nil {
		// Wake state is derived, not serialized: wake everything once
		// and re-arm in-flight link/credit arrivals from the rings.
		n.rebuildWake()
	}
	return d.Err()
}

// SnapshotTo writes the deflection network's mutable state: the packet
// table, per-router arrival slots (the staging slots are empty between
// Steps), per-NI source queues, reassembly counters, and delivery
// buffers, plus the clock and statistics. pc serializes payloads; nil
// requires all payloads nil.
func (n *Deflection) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	e.Section("deflect")
	e.Int(len(n.routers))
	e.Int(len(n.ifaces))

	pt := newPacketTable()
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		for i := ni.qHead; i < len(ni.queue); i++ {
			pt.add(ni.queue[i].pkt)
		}
		for i := ni.dHead; i < len(ni.deliveries); i++ {
			pt.add(ni.deliveries[i])
		}
	}
	for r := range n.routers {
		for d := 0; d < 4; d++ {
			pt.add(n.routers[r].in[d].pkt)
		}
	}
	// Packets mid-reassembly may have every remaining flit in flight
	// (already collected) or be referenced only here; order the
	// residue deterministically by packet ID before table insertion.
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		res := make([]*Packet, 0, len(ni.reassembly))
		//simlint:allow maprange entries are sorted by packet ID before use
		for p := range ni.reassembly {
			res = append(res, p)
		}
		sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
		for _, p := range res {
			pt.add(p)
		}
	}
	encodePacketTable(e, pt, pc)

	e.U64(uint64(n.cycle))
	e.U64(n.injected)
	e.U64(n.delivered)
	e.U64(n.nextID)
	n.tracker.SnapshotTo(e)

	e.Section("difaces")
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		e.U32(uint32(len(ni.queue) - ni.qHead))
		for i := ni.qHead; i < len(ni.queue); i++ {
			f := ni.queue[i]
			e.U32(pt.ref(f.pkt))
			e.U32(uint32(f.seq))
			e.U64(uint64(f.age))
		}
		res := make([]*Packet, 0, len(ni.reassembly))
		//simlint:allow maprange entries are sorted by packet ID before use
		for p := range ni.reassembly {
			res = append(res, p)
		}
		sort.Slice(res, func(i, j int) bool { return res[i].ID < res[j].ID })
		e.U32(uint32(len(res)))
		for _, p := range res {
			e.U32(pt.ref(p))
			e.U32(uint32(ni.reassembly[p]))
		}
		e.U32(uint32(len(ni.deliveries) - ni.dHead))
		for i := ni.dHead; i < len(ni.deliveries); i++ {
			e.U32(pt.ref(ni.deliveries[i]))
		}
	}

	e.Section("drouters")
	for r := range n.routers {
		rt := &n.routers[r]
		for d := 0; d < 4; d++ {
			f := rt.in[d]
			e.U32(pt.ref(f.pkt))
			e.U32(uint32(f.seq))
			e.U64(uint64(f.age))
		}
		e.U64(rt.deflects)
		e.U64(rt.flitHops)
		e.U64(rt.ejects)
	}
}

// RestoreFrom rebuilds the state written by SnapshotTo into a
// deflection network constructed with the same configuration and
// topology. track (optional) observes every restored packet.
func (n *Deflection) RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*Packet)) error {
	d.Section("deflect")
	if got := d.Int(); d.Err() == nil && got != len(n.routers) {
		d.Failf("deflection geometry mismatch: snapshot has %d routers, target has %d", got, len(n.routers))
	}
	if got := d.Int(); d.Err() == nil && got != len(n.ifaces) {
		d.Failf("deflection geometry mismatch: snapshot has %d terminals, target has %d", got, len(n.ifaces))
	}
	if d.Err() != nil {
		return d.Err()
	}

	pkts := decodePacketTable(d, pc, len(n.ifaces), 1<<30, track)
	if d.Err() != nil {
		return d.Err()
	}

	n.cycle = sim.Cycle(d.U64())
	n.injected = d.U64()
	n.delivered = d.U64()
	n.nextID = d.U64()
	if err := n.tracker.RestoreFrom(d); err != nil {
		return err
	}

	d.Section("difaces")
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		d.Enter(fmt.Sprintf("diface[%d]", t))
		cnt := d.Count(20)
		ni.queue = ni.queue[:0]
		ni.qHead = 0
		for i := 0; i < cnt; i++ {
			f := deflFlit{
				pkt: resolveRef(d, pkts),
				seq: int32(d.U32()),
				age: sim.Cycle(d.U64()),
			}
			if f.pkt == nil && d.Err() == nil {
				d.Failf("nil packet in source queue slot %d", i)
			}
			if d.Err() != nil {
				d.Leave()
				return d.Err()
			}
			ni.queue = append(ni.queue, f)
		}
		cnt = d.Count(8)
		ni.reassembly = make(map[*Packet]int32, cnt)
		for i := 0; i < cnt; i++ {
			p := resolveRef(d, pkts)
			got := int32(d.U32())
			if d.Err() == nil && p == nil {
				d.Failf("nil packet in reassembly entry %d", i)
			}
			if d.Err() == nil && (got < 1 || int(got) >= p.Size) {
				d.Failf("reassembly count %d out of range for %d-flit packet", got, p.Size)
			}
			if d.Err() != nil {
				d.Leave()
				return d.Err()
			}
			ni.reassembly[p] = got
		}
		cnt = d.Count(4)
		ni.deliveries = ni.deliveries[:0]
		ni.dHead = 0
		for i := 0; i < cnt; i++ {
			p := resolveRef(d, pkts)
			if p == nil && d.Err() == nil {
				d.Failf("nil packet in delivery buffer slot %d", i)
			}
			if d.Err() != nil {
				d.Leave()
				return d.Err()
			}
			ni.deliveries = append(ni.deliveries, p)
		}
		d.Leave()
		if d.Err() != nil {
			return d.Err()
		}
	}

	d.Section("drouters")
	for r := range n.routers {
		rt := &n.routers[r]
		d.Enter(fmt.Sprintf("drouter[%d]", r))
		for k := 0; k < 4; k++ {
			rt.in[k] = deflFlit{
				pkt: resolveRef(d, pkts),
				seq: int32(d.U32()),
				age: sim.Cycle(d.U64()),
			}
			rt.next[k] = deflFlit{}
		}
		rt.deflects = d.U64()
		rt.flitHops = d.U64()
		rt.ejects = d.U64()
		d.Leave()
		if d.Err() != nil {
			return d.Err()
		}
	}
	n.drainBuf = n.drainBuf[:0]
	if d.Err() == nil {
		// Wake state is derived: the staging slots are empty between
		// steps, so conservatively waking every router suffices (the
		// first wake pass re-arms queued future injections).
		n.resetWake()
	}
	return d.Err()
}
