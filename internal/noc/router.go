package noc

import (
	"fmt"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// Input-VC packet-progress states.
const (
	vcIdle   uint8 = iota // no packet, or waiting for a head flit
	vcWaitVA              // route computed, waiting for an output VC
	vcActive              // output VC held, flits streaming
)

// inputVC is the per-(port, VC) input-side state of a router.
type inputVC struct {
	buf     flitBuf
	state   uint8
	choices []topology.Choice // cached route (valid in vcWaitVA)
	outPort int16             // valid in vcActive
	outVC   int16             // valid in vcActive
}

// outVC is the per-(port, VC) output-side state: credit count for the
// downstream buffer and the input VC currently holding the channel.
type outVC struct {
	credits int32
	owner   int32 // global input-VC index, or -1 when free
}

// vaReq is one input VC's virtual-channel allocation request.
type vaReq struct {
	ivc  int32
	port int16
	set  int8
	vnet int8
}

// router holds all per-router state. All mutation happens in the five
// phase methods on Network, each of which touches only this router's
// state plus staging slots it exclusively writes, which is what makes
// stepping shards of routers concurrently safe.
type router struct {
	in  []inputVC // ports × totalVCs
	out []outVC   // ports × totalVCs

	vaPtr    []int32 // per output port: RR pointer over global input-VC ids
	saInPtr  []int32 // per input port: RR pointer over its VCs
	saOutPtr []int32 // per output port: RR pointer over input ports

	saReq     []int32 // per input port: input VC bidding this cycle, or -1
	saReqPort []int32 // per input port: output port that bid targets
	saGrant   []int32 // per output port: granted input VC, or -1

	vaScratch []vaReq  // reused each VA phase
	vaIndex   []int32  // per input VC: slot in vaScratch this cycle
	outFlits  []uint64 // per output port: flits traversed (utilization)

	// occ counts input VCs that are non-idle or non-empty — the wake
	// pass's busy predicate as a single load instead of an input-VC
	// walk. Maintained at the push site (ingress, NI inject) and the
	// release site (ST tail pop); derived state, rebuilt on restore.
	occ int32

	// Energy event counters (see Network.Energy).
	bufWrites uint64
	bufReads  uint64
	arbGrants uint64
}

func newRouter(ports, vcs, bufDepth int) router {
	rt := router{
		in:        make([]inputVC, ports*vcs),
		out:       make([]outVC, ports*vcs),
		vaPtr:     make([]int32, ports),
		saInPtr:   make([]int32, ports),
		saOutPtr:  make([]int32, ports),
		saReq:     make([]int32, ports),
		saReqPort: make([]int32, ports),
		saGrant:   make([]int32, ports),
		vaIndex:   make([]int32, ports*vcs),
		outFlits:  make([]uint64, ports),
	}
	for i := range rt.in {
		rt.in[i].buf = newFlitBuf(bufDepth)
	}
	for i := range rt.out {
		rt.out[i].owner = -1
	}
	return rt
}

// stepRouter runs all five phases for router r in order. Fusing is
// bit-identical to the five barrier-separated sweeps because every
// cross-router hand-off goes through a cycle-indexed ring slot
// addressed at least one cycle ahead: nothing a phase reads this
// cycle was written by any router this cycle. shardStep sweeps small
// active sets with it.
//
// A router with no occupied input VC after ingress — woken only to
// consume a credit, say — cannot route, allocate, bid, or traverse:
// RC/VA/SA/ST are byte-level no-ops, so the gated sweeps skip them.
// Only the switch-allocation scratch needs care: clearGrants rewrites
// what phaseSA would have, so the wake pass and the next traversal
// never read a stale grant.
func (n *Network) stepRouter(r int) {
	n.phaseIngress(r)
	rt := &n.routers[r]
	if rt.occ == 0 {
		clearGrants(rt)
		return
	}
	n.phaseRC(r)
	n.phaseVA(r)
	n.phaseSA(r)
	n.phaseST(r)
}

// clearGrants resets the per-cycle switch-allocation output exactly as
// an all-idle phaseSA pass would.
func clearGrants(rt *router) {
	for p := range rt.saGrant {
		rt.saGrant[p] = -1
	}
}

// phaseIngress ingests link flit arrivals, link credit returns, NI
// credit returns, and NI flit injection for router r.
func (n *Network) phaseIngress(r int) {
	rt := &n.routers[r]
	now := n.cycle
	V := n.cfg.TotalVCs()
	lp := n.topo.LocalPorts()
	ports := n.topo.Ports()

	for p := lp; p < ports; p++ {
		if lnk := n.links[r][p]; lnk != nil {
			if f, ok := lnk.recvFlit(now); ok {
				ivc := &rt.in[p*V+int(f.vc)]
				ivc.buf.push(flitEntry{
					pkt:   f.pkt,
					seq:   f.seq,
					ready: now + sim.Cycle(n.cfg.RouterStages-1),
				})
				if ivc.state == vcIdle && ivc.buf.len() == 1 {
					rt.occ++
				}
				rt.bufWrites++
			}
		}
		// Credits for output port p return on the downstream router's
		// inbound link object.
		if xl := n.xLink[r*ports+p]; xl != nil {
			if vc, got := xl.recvCredit(now); got {
				ov := &rt.out[p*V+int(vc)]
				ov.credits++
				if int(ov.credits) > n.cfg.BufDepth {
					panic(fmt.Sprintf("noc: credit overflow router %d port %d vc %d", r, p, vc))
				}
			}
		}
	}

	for port := 0; port < lp; port++ {
		ni := &n.ifaces[n.topo.TerminalAt(r, port)]
		if vc, ok := ni.creditRing.recvCredit(now); ok {
			ni.credits[vc]++
			if int(ni.credits[vc]) > n.cfg.BufDepth {
				panic(fmt.Sprintf("noc: NI credit overflow terminal %d vc %d", ni.terminal, vc))
			}
		}
		ni.tryInject(n, rt, now)
	}
}

// phaseRC computes routes for head flits at the front of idle VCs.
func (n *Network) phaseRC(r int) {
	rt := &n.routers[r]
	now := n.cycle
	for i := range rt.in {
		ivc := &rt.in[i]
		if ivc.state != vcIdle || ivc.buf.len() == 0 {
			continue
		}
		e := ivc.buf.front()
		if e.ready > now {
			continue
		}
		if !e.head() {
			panic(fmt.Sprintf("noc: non-head flit %d of %v at front of idle VC", e.seq, e.pkt))
		}
		dstRouter, dstPort := n.topo.RouterOf(e.pkt.Dst)
		if dstRouter == r {
			ivc.choices = append(ivc.choices[:0], topology.Choice{Port: dstPort}) //simlint:allow alloc refills the per-VC choices scratch, capacity one after first use
		} else {
			V := n.cfg.TotalVCs()
			curSet := (i % V % n.cfg.VCsPerVNet) / n.vcsPerSet
			ivc.choices = n.routing.Route(r, e.pkt.Src, e.pkt.Dst, curSet, ivc.choices[:0])
		}
		ivc.state = vcWaitVA
	}
}

// phaseVA allocates output virtual channels: each waiting input VC
// selects its best admissible next hop (by downstream credit count,
// for adaptive routing), then a per-output-port round-robin arbiter
// grants free VCs in the requested virtual network and VC-set range.
func (n *Network) phaseVA(r int) {
	rt := &n.routers[r]
	V := n.cfg.TotalVCs()
	reqs := rt.vaScratch[:0]

	for i := range rt.in {
		ivc := &rt.in[i]
		if ivc.state != vcWaitVA {
			continue
		}
		vnet := i % V / n.cfg.VCsPerVNet
		best := -1
		bestScore := int64(-1)
		for ci, ch := range ivc.choices {
			free, creditSum := n.vcRangeAvail(rt, ch.Port, vnet, ch.VCSet)
			if free == 0 {
				continue
			}
			if creditSum > bestScore {
				bestScore = creditSum
				best = ci
			}
		}
		if best < 0 {
			continue // no free VC on any admissible hop; retry next cycle
		}
		ch := ivc.choices[best]
		rt.vaIndex[i] = int32(len(reqs))
		reqs = append(reqs, vaReq{ivc: int32(i), port: int16(ch.Port), set: int8(ch.VCSet), vnet: int8(vnet)}) //simlint:allow alloc refills vaScratch, bounded by the router's input-VC count
	}
	rt.vaScratch = reqs[:0] // keep capacity

	if len(reqs) == 0 {
		return
	}
	ports := n.topo.Ports()
	for p := 0; p < ports; p++ {
		granted := false
		// Round-robin over requesters by global input-VC id.
		base := rt.vaPtr[p]
		for off := int32(0); off < int32(len(rt.in)); off++ {
			id := (base + off) % int32(len(rt.in))
			// vaIndex needs no per-cycle reset: a stale slot can only
			// pass the ivc check if reqs[j] is id's own request, and in
			// that case the fill above just overwrote vaIndex[id].
			j := rt.vaIndex[id]
			if int(j) >= len(reqs) || reqs[j].ivc != id || reqs[j].port != int16(p) {
				continue
			}
			req := reqs[j]
			vc, found := n.freeVCInRange(rt, p, int(req.vnet), int(req.set))
			if !found {
				continue
			}
			ivc := &rt.in[req.ivc]
			ivc.state = vcActive
			ivc.outPort = req.port
			ivc.outVC = int16(vc)
			rt.out[p*V+vc].owner = req.ivc
			rt.arbGrants++
			if !granted {
				rt.vaPtr[p] = (id + 1) % int32(len(rt.in))
				granted = true
			}
		}
	}
}

// vcRangeAvail reports how many VCs are free (unowned) and the total
// credits across free VCs for the given (port, vnet, set) range. The
// sum is 64-bit so ejection VCs' large sentinel credits cannot
// overflow it.
func (n *Network) vcRangeAvail(rt *router, port, vnet, set int) (free int, creditSum int64) {
	V := n.cfg.TotalVCs()
	base := port*V + vnet*n.cfg.VCsPerVNet + set*n.vcsPerSet
	for k := 0; k < n.vcsPerSet; k++ {
		ov := &rt.out[base+k]
		if ov.owner == -1 {
			free++
			creditSum += int64(ov.credits)
		}
	}
	return free, creditSum
}

// freeVCInRange returns the first free VC index (within the port's VC
// space) in the given (vnet, set) range.
func (n *Network) freeVCInRange(rt *router, port, vnet, set int) (int, bool) {
	V := n.cfg.TotalVCs()
	lo := vnet*n.cfg.VCsPerVNet + set*n.vcsPerSet
	for k := 0; k < n.vcsPerSet; k++ {
		if rt.out[port*V+lo+k].owner == -1 {
			return lo + k, true
		}
	}
	return 0, false
}

// phaseSA performs separable input-first switch allocation: each input
// port nominates one of its active VCs (round-robin), then each output
// port grants one nominating input port (round-robin).
func (n *Network) phaseSA(r int) {
	rt := &n.routers[r]
	now := n.cycle
	V := n.cfg.TotalVCs()
	lp := n.topo.LocalPorts()
	ports := n.topo.Ports()

	for ip := 0; ip < ports; ip++ {
		rt.saReq[ip] = -1
		base := rt.saInPtr[ip]
		for off := int32(0); off < int32(V); off++ {
			v := (base + off) % int32(V)
			i := ip*V + int(v)
			ivc := &rt.in[i]
			if ivc.state != vcActive || ivc.buf.len() == 0 {
				continue
			}
			if ivc.buf.front().ready > now {
				continue
			}
			op := int(ivc.outPort)
			// Ejection ports sink flits unconditionally; network ports
			// need a downstream credit.
			if op >= lp && rt.out[op*V+int(ivc.outVC)].credits <= 0 {
				continue
			}
			rt.saReq[ip] = int32(i)
			rt.saReqPort[ip] = int32(op)
			rt.saInPtr[ip] = v + 1
			break
		}
	}

	for p := 0; p < ports; p++ {
		rt.saGrant[p] = -1
		base := rt.saOutPtr[p]
		for off := int32(0); off < int32(ports); off++ {
			ip := (base + off) % int32(ports)
			if rt.saReq[ip] >= 0 && rt.saReqPort[ip] == int32(p) {
				rt.saGrant[p] = rt.saReq[ip]
				rt.saOutPtr[p] = ip + 1
				break
			}
		}
	}
}

// phaseST moves granted flits through the crossbar onto links (or into
// the destination NI), returns credits upstream, and releases VCs on
// tail flits.
func (n *Network) phaseST(r int) {
	rt := &n.routers[r]
	now := n.cycle
	V := n.cfg.TotalVCs()
	lp := n.topo.LocalPorts()
	ports := n.topo.Ports()

	for p := 0; p < ports; p++ {
		g := rt.saGrant[p]
		if g < 0 {
			continue
		}
		ivc := &rt.in[g]
		e := ivc.buf.pop()
		if e.head() {
			e.pkt.Hops++
		}
		rt.outFlits[p]++
		rt.bufReads++
		rt.arbGrants++

		if p < lp { // ejection
			if e.tail() {
				ni := &n.ifaces[n.topo.TerminalAt(r, p)]
				e.pkt.DeliveredAt = now + sim.Cycle(n.cfg.LinkLatency)
				ni.deliveries = append(ni.deliveries, e.pkt) //simlint:allow alloc delivery buffer is host-drained each quantum and keeps its capacity
			}
		} else {
			xl := n.xLink[r*ports+p]
			if xl == nil {
				panic(fmt.Sprintf("noc: ST to unconnected port %d on router %d", p, r))
			}
			xl.sendFlit(now, n.cfg.LinkLatency, linkFlit{pkt: e.pkt, seq: e.seq, vc: ivc.outVC})
			ov := &rt.out[p*V+int(ivc.outVC)]
			ov.credits--
			if ov.credits < 0 {
				panic(fmt.Sprintf("noc: negative credits router %d port %d vc %d", r, p, ivc.outVC))
			}
		}

		// Return the freed buffer slot upstream.
		ip := int(g) / V
		vc := int16(int(g) % V)
		if ip < lp {
			ni := &n.ifaces[n.topo.TerminalAt(r, ip)]
			ni.creditRing.sendCredit(now, n.cfg.CreditLatency, vc)
		} else {
			n.links[r][ip].sendCredit(now, n.cfg.CreditLatency, vc)
		}

		if e.tail() {
			rt.out[p*V+int(ivc.outVC)].owner = -1
			ivc.state = vcIdle
			if ivc.buf.len() == 0 {
				rt.occ--
			}
		}
	}
}
