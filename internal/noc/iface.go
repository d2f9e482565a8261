package noc

import (
	"fmt"

	"repro/internal/sim"
)

// Iface is a terminal's network interface: per-virtual-network
// injection queues, the flit serializer that feeds the attached
// router's local input port, and the delivery buffer the client drains.
// All three hold packet handles (see packet.go).
type Iface struct {
	// What an idle NI's cycle reads comes first, in one cache line.
	cur    uint32 // handle of the packet being serialized, or 0
	curSeq int32
	curVC  int16
	// queued counts the packets in queues past their qHead, eligible or
	// not: what pending() recounts. An NI with nothing queued and
	// nothing serializing leaves tryInject and rearm after one compare.
	queued int //simlint:derived recounted from the queues by rederive

	// credits counts free slots per VC of the router's local input port;
	// returns arrive on that port record's credit ring.
	credits []int32

	terminal  int //simlint:derived construction input: the NI's place in the topology
	router    int //simlint:derived construction input: the NI's place in the topology
	localPort int //simlint:derived construction input: the NI's place in the topology

	queues [][]uint32 // per vnet, time-ordered by CreatedAt
	qHead  []int      // consumed prefix per queue
	rr     int        // round-robin pointer over vnets

	deliveries []uint32 // tail-ejected packets, DeliveredAt ascending
	dHead      int

	injectedPkts  uint64
	injectedFlits uint64
}

func newIface(terminal, router, localPort int, cfg Config) Iface {
	credits := make([]int32, cfg.TotalVCs())
	for i := range credits {
		credits[i] = int32(cfg.BufDepth)
	}
	return Iface{
		terminal:  terminal,
		router:    router,
		localPort: localPort,
		queues:    make([][]uint32, cfg.VNets),
		qHead:     make([]int, cfg.VNets),
		credits:   credits,
	}
}

// enqueue appends packet p, with handle hp in the table pkts, to its
// virtual network's injection queue. Packets must be enqueued in
// nondecreasing CreatedAt order per vnet.
func (ni *Iface) enqueue(p *Packet, hp uint32, pkts []*Packet) {
	q, h := ni.queues[p.VNet], ni.qHead[p.VNet]
	if n := len(q); n > h && pkts[q[n-1]].CreatedAt > p.CreatedAt {
		panic(fmt.Sprintf("noc: out-of-order injection at terminal %d (%v after %v)",
			ni.terminal, p.CreatedAt, pkts[q[n-1]].CreatedAt))
	}
	if h > 0 && 2*h >= len(q) {
		// Reclaim the consumed prefix once it is half the queue (one
		// move per packet, amortized): a backlogged queue never
		// empties, and its storage must track the backlog.
		q = q[:copy(q, q[h:])]
		ni.qHead[p.VNet] = 0
	}
	ni.queues[p.VNet] = append(q, hp)
	ni.queued++
}

// pending reports queued-but-not-yet-serialized packets, regardless of
// their creation time, by counting them: what queued must equal.
func (ni *Iface) pending() int {
	n := 0
	for v := range ni.queues {
		n += len(ni.queues[v]) - ni.qHead[v]
	}
	return n
}

// tryInject advances the serializer by at most one flit: it starts the
// next eligible packet if idle, then pushes one flit into the router's
// local input port if a credit is available.
func (ni *Iface) tryInject(n *Network, now sim.Cycle) {
	if ni.cur == 0 {
		if ni.queued == 0 {
			return
		}
		if ni.selectNext(n, now); ni.cur == 0 {
			return
		}
	}
	if ni.credits[ni.curVC] <= 0 {
		return
	}
	ref := n.refOf(ni.cur, ni.curSeq)
	n.pushFlit(ni.router, ni.localPort, int(ni.curVC), flitEntry{ref: ref, seq: ni.curSeq, ready: now + sim.Cycle(n.cfg.RouterStages-1)})
	ni.credits[ni.curVC]--
	ni.injectedFlits++
	ni.curSeq++
	if ref&tailBit != 0 {
		ni.cur = 0
		n.niWork[ni.router*n.lp+ni.localPort] = ni.queued != 0
	}
}

// selectNext picks the next packet to serialize: round-robin over
// virtual networks with an eligible (CreatedAt <= now) head packet and
// a creditable VC in the vnet's set-0 range. The credits are asked
// first, so a vnet without one never loads its head packet. The head
// flit stamps InjectedAt when selected.
func (ni *Iface) selectNext(n *Network, now sim.Cycle) {
	for k, v := 0, ni.rr; k < len(ni.queues); k, v = k+1, v+1 {
		if v == len(ni.queues) {
			v = 0
		}
		if ni.qHead[v] >= len(ni.queues[v]) {
			continue
		}
		vc, ok := ni.bestVC(n, v)
		if !ok {
			continue
		}
		h := ni.queues[v][ni.qHead[v]]
		p := n.pkts[h]
		if p.CreatedAt > now {
			continue
		}
		ni.qHead[v]++
		ni.queued--
		if ni.rr = v + 1; ni.rr == len(ni.queues) {
			ni.rr = 0
		}
		ni.cur = h
		ni.curSeq = 0
		ni.curVC = vc
		ni.injectedPkts++
		p.InjectedAt = now
		return
	}
}

// bestVC returns the VC with the most credits in vnet's set-0 range.
func (ni *Iface) bestVC(n *Network, vnet int) (int16, bool) {
	lo := vnet * n.cfg.VCsPerVNet
	best, bestCredits := -1, int32(0)
	for k := 0; k < n.vcsPerSet; k++ {
		if c := ni.credits[lo+k]; c > bestCredits {
			bestCredits = c
			best = lo + k
		}
	}
	if best < 0 {
		return 0, false
	}
	return int16(best), true
}

// drainInto appends deliveries due at or before cycle `now` to out,
// releasing their handles in n, and returns the extended slice.
func (ni *Iface) drainInto(n *Network, out []*Packet, now sim.Cycle) []*Packet {
	for ni.dHead < len(ni.deliveries) && n.pkts[ni.deliveries[ni.dHead]].DeliveredAt <= now {
		out = append(out, n.release(ni.deliveries[ni.dHead]))
		ni.dHead++
	}
	if ni.dHead == len(ni.deliveries) && ni.dHead > 0 {
		ni.deliveries = ni.deliveries[:0]
		ni.dHead = 0
	}
	return out
}

// idle reports whether the NI has no queued packets (eligible or not)
// and no packet in serialization.
func (ni *Iface) idle() bool { return ni.cur == 0 && ni.queued == 0 }
