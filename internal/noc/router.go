package noc

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"repro/internal/sim"
)

// Input-VC packet-progress states.
const (
	vcIdle   uint8 = iota // no packet, or waiting for a head flit
	vcWaitVA              // route computed, waiting for an output VC
	vcActive              // output VC held, flits streaming
)

// below returns the mask of bit positions under k (all 64 for k >= 64).
func below(k int32) uint64 { return uint64(1)<<uint(k) - 1 }

// stepRouter runs all five phases for router r in order. Fusing is
// bit-identical to the five barrier-separated sweeps because every
// cross-router hand-off goes through a cycle-indexed ring slot
// addressed at least one cycle ahead: nothing a phase reads this
// cycle was written by any router this cycle.
//
// A router with no occupied input VC after ingress — woken only to
// consume a credit, say — cannot route, allocate, bid, or traverse:
// RC/VA/SA/ST are byte-level no-ops, so the gated sweep skips them.
// Only the switch-allocation output needs care: clearing grants
// rewrites what phaseSA would have, so rearm never reads a stale grant.
func (n *Network) stepRouter(r int) {
	n.phaseIngress(r)
	if !n.occupied(r) {
		n.grants[r] = 0
		n.checkMasks(r)
		return
	}
	n.phaseRC(r)
	n.phaseVA(r)
	n.phaseSA(r)
	n.phaseST(r)
}

// occupied reports whether any input VC of router r is non-idle or
// non-empty — the busy predicate of the gated sweep and of rearm: one
// mask record wherever the router's VCs fit a word.
func (n *Network) occupied(r int) bool {
	var any uint64
	for _, m := range n.masks[r*n.mw : (r+1)*n.mw] {
		any |= m.buf | m.wait | m.act
	}
	return any != 0
}

// phaseIngress takes in router r's link flits due this cycle, link
// credit returns and NI credit returns — reading the router's arrival
// bytes a word at a time and visiting only the flagged rings — and
// then runs NI flit injection. A link flit is due at the cycle it can
// first be switched (see sendFlit), so it enters ready.
func (n *Network) phaseIngress(r int) {
	now := n.cycle
	rp := r * n.ports
	arr := n.arrivals[n.rxArr+r*n.arrStride:][:n.arrStride]
	for k := 0; k < len(arr); k += 8 {
		w := binary.LittleEndian.Uint64(arr[k:])
		if w == 0 {
			continue
		}
		binary.LittleEndian.PutUint64(arr[k:], 0)
		for x := w & arrFlits; x != 0; x &= x - 1 {
			p := k + bits.TrailingZeros64(x)>>3
			f := n.takeFlit(rp + p)
			n.pushFlit(r, p, int(f.vc), f.entry(now))
		}
		for x := w & arrCreds; x != 0; x &= x - 1 {
			p := k + bits.TrailingZeros64(x)>>3
			vc := n.takeCredit(rp + p)
			if p < n.lp {
				ni := &n.ifaces[n.niAt[r*n.lp+p]]
				if ni.credits[vc]++; int(ni.credits[vc]) > n.depth {
					panic(fmt.Sprintf("noc: NI credit overflow terminal %d vc %d", ni.terminal, vc))
				}
				continue
			}
			o := r*n.pv + p*n.vcs + int(vc)
			if n.outCredits[o]++; int(n.outCredits[o]) > n.depth {
				panic(fmt.Sprintf("noc: credit overflow router %d port %d vc %d", r, p, vc))
			}
		}
	}
	for lr := r * n.lp; lr < (r+1)*n.lp; lr++ {
		if n.niWork[lr] {
			n.ifaces[n.niAt[lr]].tryInject(n, now)
		}
	}
}

// phaseRC computes routes for head flits at the front of idle VCs: the
// VCs with a buffered flit that are neither waiting nor active.
func (n *Network) phaseRC(r int) {
	now := n.cycle
	sc := &n.scratch[n.shardOf[r]]
	for w := 0; w < n.mw; w++ {
		m := &n.masks[r*n.mw+w]
		for x := m.buf &^ (m.wait | m.act); x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			id := w*n.wordVCs + b
			i := r*n.pv + id
			e := n.front(i)
			if e.ready > now {
				continue
			}
			if !e.head() {
				panic(fmt.Sprintf("noc: non-head flit %d of %v at front of idle VC", e.seq, n.pkts[e.handle()]))
			}
			hops := n.hops[i*maxHops : (i+1)*maxHops]
			k := n.keys[e.handle()]
			if dst := n.term[k.dst]; int(dst.router) == r {
				hops[0] = hop{port: dst.port}
				n.vcHops[i] = 1
			} else {
				route := n.routing.Route(r, int(k.src), int(k.dst), int(n.vcInfo[id].set), sc.route[:0])
				for k, ch := range route { // at most MaxChoices() <= maxHops (Validate)
					hops[k] = hop{port: int16(ch.Port), set: int16(ch.VCSet)}
				}
				n.vcHops[i] = uint8(len(route))
			}
			n.vcState[i] = vcWaitVA
			m.wait |= 1 << uint(b)
		}
	}
}

// phaseVA allocates output virtual channels: each waiting input VC
// selects its best admissible next hop (by downstream credit count,
// for adaptive routing) and joins that output port's request mask, then
// a per-output-port round-robin arbiter grants free VCs in the
// requested virtual network and VC-set range. The arbiter walks the
// requesters at or above vaPtr in ascending id order, then the ones
// below it — the order a scan of (vaPtr + k) mod inputVCs visits them
// in — and may grant several requesters per port per cycle; the pointer
// moves past the first one granted.
func (n *Network) phaseVA(r int) {
	sc := &n.scratch[n.shardOf[r]]
	rp, vb, mb := r*n.ports, r*n.pv, r*n.mw

	var reqPorts uint64
	for w := 0; w < n.mw; w++ {
		for x := n.masks[mb+w].wait; x != 0; x &= x - 1 {
			b := bits.TrailingZeros64(x)
			id := w*n.wordVCs + b
			vnet := int(n.vcInfo[id].vnet)
			best, bestScore := hop{port: -1}, int64(-1)
			if hops := n.hops[(vb+id)*maxHops:][:n.vcHops[vb+id]]; len(hops) == 1 {
				// One admissible hop: a free VC is all it needs, the
				// credit sum only ranks hops against each other.
				if _, ok := n.freeVCInRange(vb, int(hops[0].port), vnet, int(hops[0].set)); ok {
					best = hops[0]
				}
			} else {
				for _, h := range hops {
					free, creditSum := n.vcRangeAvail(vb, int(h.port), vnet, int(h.set))
					if free != 0 && creditSum > bestScore {
						best, bestScore = h, creditSum
					}
				}
			}
			if best.port < 0 {
				continue // no free VC on any admissible hop; retry next cycle
			}
			sc.set[id] = best.set
			sc.req[int(best.port)*n.mw+w] |= 1 << uint(b)
			reqPorts |= 1 << uint(best.port)
		}
	}

	for ; reqPorts != 0; reqPorts &= reqPorts - 1 {
		op := bits.TrailingZeros64(reqPorts)
		req := sc.req[op*n.mw : (op+1)*n.mw]
		ptr := int(n.vaPtr[rp+op])
		granted := false
		// Two passes over the request words: the ids at or above the
		// pointer, then the ids below it.
		for pass := 0; pass < 2; pass++ {
			for w, x := range req {
				base := w * n.wordVCs
				lo := below(int32(max(ptr-base, 0))) // the word's ids below the pointer
				if pass == 0 {
					x &^= lo
				} else {
					x &= lo
				}
				for ; x != 0; x &= x - 1 {
					b := bits.TrailingZeros64(x)
					id := base + b
					vc, found := n.freeVCInRange(vb, op, int(n.vcInfo[id].vnet), int(sc.set[id]))
					if !found {
						continue
					}
					n.vcState[vb+id] = vcActive
					n.vcOutPort[vb+id] = int16(op)
					n.vcOutVC[vb+id] = int16(vc)
					n.outOwner[vb+op*n.vcs+vc] = int32(id)
					m := &n.masks[mb+w]
					m.wait &^= 1 << uint(b)
					m.act |= 1 << uint(b)
					n.arbGrants[r]++
					if !granted {
						next := id + 1
						if next == n.pv {
							next = 0
						}
						n.vaPtr[rp+op] = int32(next)
						granted = true
					}
				}
			}
		}
		clear(req)
	}
}

// vcRangeAvail reports how many VCs are free (unowned) and the total
// credits across free VCs for the given (port, vnet, set) range of the
// router whose VC records start at vb. The sum is 64-bit so ejection
// VCs' large sentinel credits cannot overflow it.
func (n *Network) vcRangeAvail(vb, port, vnet, set int) (free int, creditSum int64) {
	base := vb + port*n.vcs + vnet*n.cfg.VCsPerVNet + set*n.vcsPerSet
	for o := base; o < base+n.vcsPerSet; o++ {
		if n.outOwner[o] == -1 {
			free++
			creditSum += int64(n.outCredits[o])
		}
	}
	return free, creditSum
}

// freeVCInRange returns the first free VC index (within the port's VC
// space) in the given (vnet, set) range.
func (n *Network) freeVCInRange(vb, port, vnet, set int) (int, bool) {
	lo := vnet*n.cfg.VCsPerVNet + set*n.vcsPerSet
	for k := lo; k < lo+n.vcsPerSet; k++ {
		if n.outOwner[vb+port*n.vcs+k] == -1 {
			return k, true
		}
	}
	return 0, false
}

// phaseSA performs separable input-first switch allocation: each input
// port with a candidate — an active, buffered VC — nominates one of
// them, then each output port grants one nominating input port. Both
// arbiters are round-robin: the candidates at or above the pointer in
// ascending order, then the ones below it — the order a scan of
// (pointer + k) mod size finds them in.
func (n *Network) phaseSA(r int) {
	sc := &n.scratch[n.shardOf[r]]
	rp := r * n.ports
	field := below(int32(n.vcs)) // one port's VCs, shifted down to bit 0

	var bidPorts uint64
	for w := 0; w < n.mw; w++ {
		m := n.masks[r*n.mw+w]
		for x := m.act & m.buf; x != 0; {
			// The lowest candidate names its port; take the port's whole
			// field out of the word at once.
			b := bits.TrailingZeros64(x)
			vi := n.vcInfo[w*n.wordVCs+b]
			ip, shift := int(vi.port), uint(b)-uint(vi.vc)
			cand := x >> shift & field
			x &^= field << shift

			v := n.saNominate(r, ip, cand, below(n.saInPtr[rp+ip]))
			if v < 0 {
				continue
			}
			op := n.vcOutPort[r*n.pv+ip*n.vcs+v]
			sc.saReq[ip] = int16(v)
			sc.bid[op] |= 1 << uint(ip)
			bidPorts |= 1 << uint(op)
			n.saInPtr[rp+ip] = int32(v + 1)
		}
	}

	n.grants[r] = bidPorts
	for ; bidPorts != 0; bidPorts &= bidPorts - 1 {
		p := bits.TrailingZeros64(bidPorts)
		bid := sc.bid[p]
		sc.bid[p] = 0
		w := bid &^ below(n.saOutPtr[rp+p])
		if w == 0 {
			w = bid
		}
		ip := bits.TrailingZeros64(w)
		n.saGrant[rp+p] = vcRef{port: int16(ip), vc: sc.saReq[ip]}
		n.saOutPtr[rp+p] = int32(ip + 1)
	}
}

// saNominate returns the first VC of cand, a mask over input port ip's
// VCs, in round-robin order — those not under lo ascending, then those
// under it — that can traverse the switch this cycle: on a network
// output port it holds a downstream credit (ejection ports sink flits
// unconditionally), and its front flit is through the router pipeline.
// The credit is checked first, so a VC blocked downstream never loads
// its flit. -1 if none can.
func (n *Network) saNominate(r, ip int, cand, lo uint64) int {
	vb := r * n.pv
	for _, x := range [2]uint64{cand &^ lo, cand & lo} {
		for ; x != 0; x &= x - 1 {
			v := bits.TrailingZeros64(x)
			i := vb + ip*n.vcs + v
			op := int(n.vcOutPort[i])
			if op >= n.lp && n.outCredits[vb+op*n.vcs+int(n.vcOutVC[i])] <= 0 {
				continue
			}
			if n.front(i).ready > n.cycle {
				continue
			}
			return v
		}
	}
	return -1
}

// phaseST moves granted flits through the crossbar onto links (or into
// the destination NI), returns credits upstream, and releases VCs on
// tail flits.
func (n *Network) phaseST(r int) {
	now := n.cycle
	rp, vb := r*n.ports, r*n.pv

	for g := n.grants[r]; g != 0; g &= g - 1 {
		p := bits.TrailingZeros64(g)
		in := n.saGrant[rp+p]
		i := vb + int(in.port)*n.vcs + int(in.vc)
		e := n.popFlit(r, int(in.port), int(in.vc))
		h := e.handle()
		if e.head() {
			n.hopCnt[h]++
		}
		n.outFlits[rp+p]++
		n.bufReads[r]++
		n.arbGrants[r]++

		outVC := n.vcOutVC[i]
		o := vb + p*n.vcs + int(outVC)
		if p < n.lp { // ejection
			if e.tail() {
				ni := &n.ifaces[n.niAt[r*n.lp+p]]
				n.pkts[h].DeliveredAt = now + sim.Cycle(n.cfg.LinkLatency)
				ni.deliveries = append(ni.deliveries, h) //simlint:allow alloc delivery buffer is host-drained each quantum and keeps its capacity
			}
		} else {
			far := n.peer[rp+p]
			if far.router < 0 {
				panic(fmt.Sprintf("noc: ST to unconnected port %d on router %d", p, r))
			}
			n.sendFlit(far, linkFlit{ref: e.ref, seq: e.seq, vc: outVC})
			n.outCredits[o]--
			if n.outCredits[o] < 0 {
				panic(fmt.Sprintf("noc: negative credits router %d port %d vc %d", r, p, outVC))
			}
		}

		// Return the freed buffer slot upstream: to the neighbour across
		// the input port, or to this router's own NI on a local port.
		n.sendCredit(n.peer[rp+int(in.port)], in.vc)

		if e.tail() {
			n.outOwner[o] = -1
			n.vcState[i] = vcIdle
			m, bit := n.maskBit(r, int(in.port), int(in.vc))
			m.act &^= bit
		}
	}
	n.checkMasks(r)
}

// recountMask derives mask word rw (router rw/W, word rw%W) from its
// input VCs' states and FIFO counts: how a restore rebuilds the masks,
// and what checkMasks holds the incrementally maintained ones to.
func (n *Network) recountMask(rw int) (m vcMask) {
	r, w := rw/n.mw, rw%n.mw
	lo := w * n.wordVCs
	for id := lo; id < min(lo+n.wordVCs, n.pv); id++ {
		i, bit := r*n.pv+id, uint64(1)<<uint(id-lo)
		if n.vcCount[i] != 0 {
			m.buf |= bit
		}
		switch n.vcState[i] {
		case vcWaitVA:
			m.wait |= bit
		case vcActive:
			m.act |= bit
		}
	}
	return m
}

// checkMasks asserts, under the simcheck build tag, that router r's
// derived state equals a recount: its masks, the busy predicate against
// a count of its non-idle or non-empty input VCs, its NIs' queued
// counts and work flags, and its arrival bytes. The comparisons guard
// the Assert calls so that a passing check boxes no arguments: simcheck
// builds keep the zero-alloc steady state.
func (n *Network) checkMasks(r int) {
	if !sim.Checking {
		return
	}
	occ := 0
	for i := r * n.pv; i < (r+1)*n.pv; i++ {
		if n.vcState[i] != vcIdle || n.vcCount[i] != 0 {
			occ++
		}
	}
	if n.occupied(r) != (occ > 0) {
		sim.Assert(false, "noc: router %d busy predicate %v with %d occupied input VCs", r, n.occupied(r), occ)
	}
	for rw := r * n.mw; rw < (r+1)*n.mw; rw++ {
		if want := n.recountMask(rw); n.masks[rw] != want {
			sim.Assert(false, "noc: router %d masks word %d %+v, VC state recounts to %+v", r, rw-r*n.mw, n.masks[rw], want)
		}
	}
	for lr := r * n.lp; lr < (r+1)*n.lp; lr++ {
		t := n.niAt[lr]
		ni := &n.ifaces[t]
		if ni.queued != ni.pending() {
			sim.Assert(false, "noc: terminal %d NI counts %d queued packets, its queues hold %d", t, ni.queued, ni.pending())
		}
		if n.niWork[lr] == ni.idle() {
			sim.Assert(false, "noc: terminal %d NI work flag %v, idle %v", t, n.niWork[lr], ni.idle())
		}
	}
	n.checkArrivals(r)
}

// checkArrivals recounts router r's arrival bytes against its rings:
// a byte flags a flit or a credit exactly where the ring slot of that
// cycle holds one, and nothing in the padding or beyond a ring's
// reach. The slots written this cycle — a flit's ingest cycle and a
// credit's arrival cycle — are skipped, since other shards may be
// writing them.
func (n *Network) checkArrivals(r int) {
	flitDue, credDue := n.flitRing-1, n.cfg.CreditLatency
	for d := 0; d < n.arrSlots; d++ {
		if d == flitDue || d == credDue {
			continue
		}
		at := n.cycle + sim.Cycle(d)
		for p := 0; p < n.arrStride; p++ {
			var want byte
			if rp := r*n.ports + p; p < n.ports {
				if d < flitDue && n.linkFlits[rp*n.flitRing+int(at%sim.Cycle(n.flitRing))].ref != 0 {
					want |= arrFlit
				}
				if d < credDue && n.linkCredits[rp*n.credRing+int(at%sim.Cycle(n.credRing))] != -1 {
					want |= arrCred
				}
			}
			if got := n.arrivals[n.arrIndex(at, r, p)]; got != want {
				sim.Assert(false, "noc: router %d port %d arrival byte %#x for cycle %d, its rings hold %#x", r, p, got, at, want)
			}
		}
	}
}
