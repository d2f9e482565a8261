package noc

import (
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
// rewrites what phaseSA would have, so the wake pass never reads a
// stale grant.
func (n *Network) stepRouter(r int) {
	n.phaseIngress(r)
	if !n.occupied(r) {
		n.grants[r] = 0
		return
	}
	n.phaseRC(r)
	n.phaseVA(r)
	n.phaseSA(r)
	n.phaseST(r)
}

// occupied reports whether any input VC of router r is non-idle or
// non-empty — the busy predicate of the gated sweep and the wake pass.
func (n *Network) occupied(r int) bool {
	var any uint64
	for _, m := range n.masks[r*n.ports : (r+1)*n.ports] {
		any |= m.buf | m.wait | m.act
	}
	return any != 0
}

// phaseIngress ingests link flit arrivals, link credit returns, NI
// credit returns, and NI flit injection for router r.
func (n *Network) phaseIngress(r int) {
	now := n.cycle
	rp := r * n.ports

	for p := n.lp; p < n.ports; p++ {
		if f, ok := n.recvFlit(rp + p); ok {
			n.pushFlit(r, p, int(f.vc), f.pkt, f.seq, now)
		}
		if vc, ok := n.recvCredit(rp + p); ok {
			o := r*n.pv + p*n.vcs + int(vc)
			n.outCredits[o]++
			if int(n.outCredits[o]) > n.depth {
				panic(fmt.Sprintf("noc: credit overflow router %d port %d vc %d", r, p, vc))
			}
		}
	}

	for p := 0; p < n.lp; p++ {
		ni := &n.ifaces[n.niAt[r*n.lp+p]]
		if vc, ok := n.recvCredit(rp + p); ok {
			ni.credits[vc]++
			if int(ni.credits[vc]) > n.depth {
				panic(fmt.Sprintf("noc: NI credit overflow terminal %d vc %d", ni.terminal, vc))
			}
		}
		ni.tryInject(n, now)
	}
}

// phaseRC computes routes for head flits at the front of idle VCs: the
// VCs with a buffered flit that are neither waiting nor active.
func (n *Network) phaseRC(r int) {
	now := n.cycle
	sc := &n.scratch[n.shardOf[r]]
	for p := 0; p < n.ports; p++ {
		m := &n.masks[r*n.ports+p]
		for w := m.buf &^ (m.wait | m.act); w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			i := r*n.pv + p*n.vcs + v
			e := n.front(i)
			if e.ready > now {
				continue
			}
			if !e.head() {
				panic(fmt.Sprintf("noc: non-head flit %d of %v at front of idle VC", e.seq, e.pkt))
			}
			hops := n.hops[i*maxHops : (i+1)*maxHops]
			dstRouter, dstPort := n.topo.RouterOf(e.pkt.Dst)
			if dstRouter == r {
				hops[0] = hop{port: int16(dstPort)}
				n.vcHops[i] = 1
			} else {
				curSet := (v % n.cfg.VCsPerVNet) / n.vcsPerSet
				route := n.routing.Route(r, e.pkt.Src, e.pkt.Dst, curSet, sc.route[:0])
				for k, ch := range route { // at most MaxChoices() <= maxHops (Validate)
					hops[k] = hop{port: int16(ch.Port), set: int16(ch.VCSet)}
				}
				n.vcHops[i] = uint8(len(route))
			}
			n.vcState[i] = vcWaitVA
			m.wait |= 1 << uint(v)
		}
	}
}

// phaseVA allocates output virtual channels: each waiting input VC
// selects its best admissible next hop (by downstream credit count,
// for adaptive routing) and joins that output port's request mask, then
// a per-output-port round-robin arbiter grants free VCs in the
// requested virtual network and VC-set range. The arbiter walks the
// request mask upward from vaPtr and wraps — the order a scan of
// (vaPtr + k) mod inputVCs visits the requesters in — and may grant
// several requesters per port per cycle; the pointer moves past the
// first one granted.
func (n *Network) phaseVA(r int) {
	sc := &n.scratch[n.shardOf[r]]
	rp, vb := r*n.ports, r*n.pv

	var reqPorts uint64
	for p := 0; p < n.ports; p++ {
		for w := n.masks[rp+p].wait; w != 0; w &= w - 1 {
			v := bits.TrailingZeros64(w)
			i := p*n.vcs + v
			vnet := v / n.cfg.VCsPerVNet
			best, bestScore := hop{port: -1}, int64(-1)
			for _, h := range n.hops[(vb+i)*maxHops:][:n.vcHops[vb+i]] {
				free, creditSum := n.vcRangeAvail(vb, int(h.port), vnet, int(h.set))
				if free != 0 && creditSum > bestScore {
					best, bestScore = h, creditSum
				}
			}
			if best.port < 0 {
				continue // no free VC on any admissible hop; retry next cycle
			}
			sc.set[i] = best.set
			sc.req[int(best.port)*n.ports+p] |= 1 << uint(v)
			reqPorts |= 1 << uint(best.port)
		}
	}

	for ; reqPorts != 0; reqPorts &= reqPorts - 1 {
		op := bits.TrailingZeros64(reqPorts)
		req := sc.req[op*n.ports : (op+1)*n.ports]
		ptr := int(n.vaPtr[rp+op])
		ip, lo := ptr/n.vcs, below(int32(ptr%n.vcs))
		granted := false
		// Input ports from the pointer's upward and around: the
		// pointer's own port is visited twice, first for its VCs at or
		// above the pointer and last for those below it.
		for k := 0; k <= n.ports; k++ {
			w := req[ip]
			switch k {
			case 0:
				w &^= lo
			case n.ports:
				w &= lo
			}
			for ; w != 0; w &= w - 1 {
				v := bits.TrailingZeros64(w)
				id := ip*n.vcs + v
				vc, found := n.freeVCInRange(vb, op, v/n.cfg.VCsPerVNet, int(sc.set[id]))
				if !found {
					continue
				}
				n.vcState[vb+id] = vcActive
				n.vcOutPort[vb+id] = int16(op)
				n.vcOutVC[vb+id] = int16(vc)
				n.outOwner[vb+op*n.vcs+vc] = int32(id)
				m := &n.masks[rp+ip]
				m.wait &^= 1 << uint(v)
				m.act |= 1 << uint(v)
				n.arbGrants[r]++
				if !granted {
					n.vaPtr[rp+op] = int32((id + 1) % n.pv)
					granted = true
				}
			}
			if ip++; ip == n.ports {
				ip = 0
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
// port nominates one of its active, buffered VCs, then each output port
// grants one nominating input port. Both arbiters are round-robin: the
// candidates at or above the pointer in ascending order, then the ones
// below it — the order a scan of (pointer + k) mod size finds them in.
func (n *Network) phaseSA(r int) {
	sc := &n.scratch[n.shardOf[r]]
	rp := r * n.ports

	var bidPorts uint64
	for ip := 0; ip < n.ports; ip++ {
		m := n.masks[rp+ip]
		cand := m.act & m.buf
		if cand == 0 {
			continue
		}
		lo := below(n.saInPtr[rp+ip])
		v := n.saNominate(r, ip, cand&^lo)
		if v < 0 {
			if v = n.saNominate(r, ip, cand&lo); v < 0 {
				continue
			}
		}
		op := n.vcOutPort[r*n.pv+ip*n.vcs+v]
		sc.saReq[ip] = int16(v)
		sc.bid[op] |= 1 << uint(ip)
		bidPorts |= 1 << uint(op)
		n.saInPtr[rp+ip] = int32(v + 1)
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

// saNominate returns the lowest VC in cand, a mask over input port ip's
// VCs, that can traverse the switch this cycle — its front flit is
// through the router pipeline and, on a network output port, holds a
// downstream credit (ejection ports sink flits unconditionally) — or -1.
func (n *Network) saNominate(r, ip int, cand uint64) int {
	vb := r * n.pv
	for ; cand != 0; cand &= cand - 1 {
		v := bits.TrailingZeros64(cand)
		i := vb + ip*n.vcs + v
		if n.front(i).ready > n.cycle {
			continue
		}
		op := int(n.vcOutPort[i])
		if op >= n.lp && n.outCredits[vb+op*n.vcs+int(n.vcOutVC[i])] <= 0 {
			continue
		}
		return v
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
		if e.head() {
			e.pkt.Hops++
		}
		n.outFlits[rp+p]++
		n.bufReads[r]++
		n.arbGrants[r]++

		outVC := n.vcOutVC[i]
		o := vb + p*n.vcs + int(outVC)
		if p < n.lp { // ejection
			if e.tail() {
				ni := &n.ifaces[n.niAt[r*n.lp+p]]
				e.pkt.DeliveredAt = now + sim.Cycle(n.cfg.LinkLatency)
				ni.deliveries = append(ni.deliveries, e.pkt) //simlint:allow alloc delivery buffer is host-drained each quantum and keeps its capacity
			}
		} else {
			far := n.peer[rp+p]
			if far.router < 0 {
				panic(fmt.Sprintf("noc: ST to unconnected port %d on router %d", p, r))
			}
			n.sendFlit(int(far.slot), linkFlit{pkt: e.pkt, seq: e.seq, vc: outVC})
			n.outCredits[o]--
			if n.outCredits[o] < 0 {
				panic(fmt.Sprintf("noc: negative credits router %d port %d vc %d", r, p, outVC))
			}
		}

		// Return the freed buffer slot upstream: to the neighbour across
		// the input port, or to this router's own NI on a local port.
		n.sendCredit(int(n.peer[rp+int(in.port)].slot), in.vc)

		if e.tail() {
			n.outOwner[o] = -1
			n.vcState[i] = vcIdle
			n.masks[rp+int(in.port)].act &^= 1 << uint(in.vc)
		}
	}
	n.checkMasks(r)
}

// recountMask derives port record rp's masks from its input VCs' states
// and FIFO counts: how a restore rebuilds them, and what checkMasks
// holds the incrementally maintained ones to.
func (n *Network) recountMask(rp int) (m portMask) {
	for v := 0; v < n.vcs; v++ {
		i, bit := rp*n.vcs+v, uint64(1)<<uint(v)
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
// masks equal a recount and that the busy predicate agrees with a count
// of its non-idle or non-empty input VCs. The comparisons guard the
// Assert calls so that a passing check boxes no arguments: simcheck
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
	for rp := r * n.ports; rp < (r+1)*n.ports; rp++ {
		if want := n.recountMask(rp); n.masks[rp] != want {
			sim.Assert(false, "noc: router %d port %d masks %+v, VC state recounts to %+v", r, rp-r*n.ports, n.masks[rp], want)
		}
	}
}
