package noc

import "math/bits"

// In-memory forking (second tier of the state capture contract; see
// DESIGN.md "Two-tier state capture"). A fork is a live deep clone:
// immutable tables (config, topology, routing, peer/niAt) are shared
// or rebuilt from the shared topology, live packets are cloned through
// a PacketRemap so cross-structure pointer sharing is preserved, and
// derived state (wake schedules, scratch, free lists) is re-seeded
// exactly as a snapshot restore would — which is what makes a forked
// network re-encode to bytes identical to the parent's SnapshotTo.

// PacketRemap maps live packets of a fork source to their clones. One
// remap is threaded through an entire backend fork so that every
// structure holding the same *Packet — NI queues, VC buffers, link
// slots, delivery buffers, reassembly keys, calibration prediction
// keys — ends up holding the same clone. The map is keyed by pointer
// identity and never iterated by the simulators, so it cannot
// introduce nondeterminism.
type PacketRemap map[*Packet]*Packet

// NewPacketRemap returns an empty remap.
func NewPacketRemap() PacketRemap { return make(PacketRemap) }

// Clone returns the clone of p, creating it on first sight. nil maps
// to nil. The clone is a shallow copy: every Packet field is a value
// (Payload carries a value message), so no further rewriting is
// needed.
func (m PacketRemap) Clone(p *Packet) *Packet {
	if p == nil {
		return nil
	}
	if c, ok := m[p]; ok {
		return c
	}
	c := &Packet{}
	*c = *p
	m[p] = c
	return c
}

// Fork returns an independent deep clone of the network, sharded like
// its parent. The clone never shares the parent's worker pool: it
// starts its own on its first multi-shard Step, so a fork that is only
// held (a parked session, a rollback point) owns no goroutines. remap
// threads packet clones across the owning backend.
func (n *Network) Fork(remap PacketRemap) (*Network, error) {
	f, err := New(n.cfg, n.topo, n.routing, WithWorkers(n.workers))
	if err != nil {
		return nil, err
	}
	f.copyStateFrom(n, remap)
	return f, nil
}

// RestoreFork copies f's state into n in place. n must have been
// constructed with the same configuration, topology, and routing
// (normally n is the parent f was forked from). f is left intact so
// it can seed repeated restores.
func (n *Network) RestoreFork(f *Network, remap PacketRemap) {
	n.copyStateFrom(f, remap)
}

// copyStateFrom deep-copies src's mutable state into n, cloning live
// packets through remap and re-deriving everything a snapshot restore
// would re-derive.
func (n *Network) copyStateFrom(src *Network, remap PacketRemap) {
	if n.routers != src.routers || len(n.ifaces) != len(src.ifaces) ||
		n.vcs != src.vcs || n.ports != src.ports || n.depth != src.depth ||
		n.flitRing != src.flitRing || n.credRing != src.credRing {
		panic("noc: fork between differently-shaped networks")
	}
	n.cycle = src.cycle
	n.injected = src.injected
	n.delivered = src.delivered
	n.nextID = src.nextID
	n.tracker.RestoreFork(src.tracker)

	for t := range src.ifaces {
		dst, s := &n.ifaces[t], &src.ifaces[t]
		for v := range s.queues {
			// Only the unconsumed tail is live; re-seat it at offset 0,
			// exactly as a restore does (the head offset is unobservable).
			// Empty-to-empty (the common case) needs no slice rewrites.
			if s.qHead[v] == len(s.queues[v]) && len(dst.queues[v]) == dst.qHead[v] {
				continue
			}
			dst.queues[v] = dst.queues[v][:0]
			for i := s.qHead[v]; i < len(s.queues[v]); i++ {
				dst.queues[v] = append(dst.queues[v], remap.Clone(s.queues[v][i]))
			}
			dst.qHead[v] = 0
		}
		dst.queued = s.queued
		dst.rr = s.rr
		dst.cur = remap.Clone(s.cur)
		dst.curSeq = s.curSeq
		dst.curVC = s.curVC
		copy(dst.credits, s.credits)
		if s.dHead != len(s.deliveries) || len(dst.deliveries) != dst.dHead {
			dst.deliveries = dst.deliveries[:0]
			for i := s.dHead; i < len(s.deliveries); i++ {
				dst.deliveries = append(dst.deliveries, remap.Clone(s.deliveries[i]))
			}
			dst.dHead = 0
		}
		dst.injectedPkts = s.injectedPkts
		dst.injectedFlits = s.injectedFlits
	}

	// Router and link state is one copy per field: FIFO and ring slots
	// transfer position-for-position (the clock is copied too), and
	// copying the derived masks is the cheapest way to re-derive them.
	// saGrant and grants are per-cycle scratch a snapshot restore leaves
	// alone, so the fork does too. Popped and received slots hold no
	// packet, so exactly the live entries are remapped below.
	copy(n.vcState, src.vcState)
	copy(n.vcHops, src.vcHops)
	copy(n.hops, src.hops)
	copy(n.vcOutPort, src.vcOutPort)
	copy(n.vcOutVC, src.vcOutVC)
	copy(n.vcHead, src.vcHead)
	copy(n.vcCount, src.vcCount)
	copy(n.flits, src.flits)
	copy(n.outCredits, src.outCredits)
	copy(n.outOwner, src.outOwner)
	copy(n.masks, src.masks)
	copy(n.vaPtr, src.vaPtr)
	copy(n.saInPtr, src.saInPtr)
	copy(n.saOutPtr, src.saOutPtr)
	copy(n.outFlits, src.outFlits)
	copy(n.bufWrites, src.bufWrites)
	copy(n.bufReads, src.bufReads)
	copy(n.arbGrants, src.arbGrants)
	copy(n.linkFlits, src.linkFlits)
	copy(n.linkCredits, src.linkCredits)
	for rw, m := range n.masks {
		base := rw/n.mw*n.pv + rw%n.mw*n.wordVCs
		for x := m.buf; x != 0; x &= x - 1 {
			i := base + bits.TrailingZeros64(x)
			for k := 0; k < int(n.vcCount[i]); k++ {
				f := n.fifoAt(i, k)
				f.pkt = remap.Clone(f.pkt)
			}
		}
	}
	for i := range n.linkFlits {
		if pk := n.linkFlits[i].pkt; pk != nil {
			n.linkFlits[i].pkt = remap.Clone(pk)
		}
	}

	n.drainBuf = n.drainBuf[:0]
	n.rebuildWake()
}

// Fork returns an independent deep clone of the deflection network,
// sharded like its parent; see Network.Fork.
func (n *Deflection) Fork(remap PacketRemap) (*Deflection, error) {
	f, err := NewDeflection(n.cfg, n.topo, WithDeflectWorkers(n.workers))
	if err != nil {
		return nil, err
	}
	f.copyStateFrom(n, remap)
	return f, nil
}

// RestoreFork copies f's state into n in place; f is left intact.
func (n *Deflection) RestoreFork(f *Deflection, remap PacketRemap) {
	n.copyStateFrom(f, remap)
}

func (n *Deflection) copyStateFrom(src *Deflection, remap PacketRemap) {
	if len(n.routers) != len(src.routers) || len(n.ifaces) != len(src.ifaces) {
		panic("noc: fork between differently-shaped deflection networks")
	}
	n.cycle = src.cycle
	n.injected = src.injected
	n.delivered = src.delivered
	n.nextID = src.nextID
	n.tracker.RestoreFork(src.tracker)

	for t := range src.ifaces {
		dst, s := &n.ifaces[t], &src.ifaces[t]
		dst.queue = dst.queue[:0]
		for i := s.qHead; i < len(s.queue); i++ {
			f := s.queue[i]
			f.pkt = remap.Clone(f.pkt)
			dst.queue = append(dst.queue, f)
		}
		dst.qHead = 0
		dst.reassembly = make(map[*Packet]int32, len(s.reassembly))
		//simlint:allow maprange map-to-map rebuild; insertion order immaterial
		for p, got := range s.reassembly {
			dst.reassembly[remap.Clone(p)] = got
		}
		dst.deliveries = dst.deliveries[:0]
		for i := s.dHead; i < len(s.deliveries); i++ {
			dst.deliveries = append(dst.deliveries, remap.Clone(s.deliveries[i]))
		}
		dst.dHead = 0
	}

	for r := range src.routers {
		dst, s := &n.routers[r], &src.routers[r]
		for k := 0; k < 4; k++ {
			f := s.in[k]
			f.pkt = remap.Clone(f.pkt)
			dst.in[k] = f
			// Staging slots are empty between Steps, when forks happen.
			dst.next[k] = deflFlit{}
		}
		dst.deflects = s.deflects
		dst.flitHops = s.flitHops
		dst.ejects = s.ejects
	}

	n.drainBuf = n.drainBuf[:0]
	// Wake state is derived: wake every router once, as a restore does.
	n.resetWake()
}
