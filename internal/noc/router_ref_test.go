package noc

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// The differential oracle for the mask arbiters. refRC, refVA and refSA
// are the scan-based RC/VA/SA phase bodies the router ran before its
// state went flat — every input VC visited, round-robin by
// (pointer + offset) mod size — kept verbatim over a copy of one
// router's state (refRouter). FuzzArbiterEquivalence runs them beside
// phaseRC/VA/SA on random single-router states and demands identical
// results. The gated-vs-exhaustive matrices cannot see an
// arbitration-order change, because both of their sides run the same
// phase functions; this can.

type refInputVC struct {
	count   int       // buffered flits
	front   flitEntry // oldest flit, valid when count > 0
	state   uint8
	choices []topology.Choice
	outPort int16
	outVC   int16
}

type refOutVC struct {
	credits int32
	owner   int32
}

type refVAReq struct {
	ivc  int32
	port int16
	set  int8
	vnet int8
}

type refRouter struct {
	in  []refInputVC
	out []refOutVC

	vaPtr    []int32
	saInPtr  []int32
	saOutPtr []int32

	saReq     []int32
	saReqPort []int32
	saGrant   []int32 // per output port: granted input VC, or -1

	vaIndex   []int32
	arbGrants uint64
}

// loadRef copies router r's state out of n's flat arrays.
func loadRef(n *Network, r int) *refRouter {
	rt := &refRouter{
		in:        make([]refInputVC, n.pv),
		out:       make([]refOutVC, n.pv),
		vaPtr:     append([]int32(nil), n.vaPtr[r*n.ports:(r+1)*n.ports]...),
		saInPtr:   append([]int32(nil), n.saInPtr[r*n.ports:(r+1)*n.ports]...),
		saOutPtr:  append([]int32(nil), n.saOutPtr[r*n.ports:(r+1)*n.ports]...),
		saReq:     make([]int32, n.ports),
		saReqPort: make([]int32, n.ports),
		saGrant:   make([]int32, n.ports),
		vaIndex:   make([]int32, n.pv),
		arbGrants: n.arbGrants[r],
	}
	for i := range rt.in {
		g := r*n.pv + i
		ivc := &rt.in[i]
		ivc.count = int(n.vcCount[g])
		if ivc.count > 0 {
			ivc.front = *n.front(g)
		}
		ivc.state = n.vcState[g]
		for _, h := range n.hops[g*maxHops:][:n.vcHops[g]] {
			ivc.choices = append(ivc.choices, topology.Choice{Port: int(h.port), VCSet: int(h.set)})
		}
		ivc.outPort, ivc.outVC = n.vcOutPort[g], n.vcOutVC[g]
		rt.out[i] = refOutVC{credits: n.outCredits[g], owner: n.outOwner[g]}
	}
	for p := range rt.saGrant {
		rt.saGrant[p] = -1
		if n.grants[r]>>uint(p)&1 != 0 {
			g := n.saGrant[r*n.ports+p]
			rt.saGrant[p] = int32(g.port)*int32(n.vcs) + int32(g.vc)
		}
	}
	return rt
}

func refRC(n *Network, rt *refRouter, r int) {
	now := n.cycle
	for i := range rt.in {
		ivc := &rt.in[i]
		if ivc.state != vcIdle || ivc.count == 0 {
			continue
		}
		e := ivc.front
		if e.ready > now {
			continue
		}
		if !e.head() {
			panic(fmt.Sprintf("noc: non-head flit %d of %v at front of idle VC", e.seq, e.pkt))
		}
		dstRouter, dstPort := n.topo.RouterOf(e.pkt.Dst)
		if dstRouter == r {
			ivc.choices = append(ivc.choices[:0], topology.Choice{Port: dstPort})
		} else {
			V := n.cfg.TotalVCs()
			curSet := (i % V % n.cfg.VCsPerVNet) / n.vcsPerSet
			ivc.choices = n.routing.Route(r, e.pkt.Src, e.pkt.Dst, curSet, ivc.choices[:0])
		}
		ivc.state = vcWaitVA
	}
}

func refVA(n *Network, rt *refRouter) {
	V := n.cfg.TotalVCs()
	var reqs []refVAReq

	for i := range rt.in {
		ivc := &rt.in[i]
		if ivc.state != vcWaitVA {
			continue
		}
		vnet := i % V / n.cfg.VCsPerVNet
		best := -1
		bestScore := int64(-1)
		for ci, ch := range ivc.choices {
			free, creditSum := refVCRangeAvail(n, rt, ch.Port, vnet, ch.VCSet)
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
		reqs = append(reqs, refVAReq{ivc: int32(i), port: int16(ch.Port), set: int8(ch.VCSet), vnet: int8(vnet)})
	}

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
			j := rt.vaIndex[id]
			if int(j) >= len(reqs) || reqs[j].ivc != id || reqs[j].port != int16(p) {
				continue
			}
			req := reqs[j]
			vc, found := refFreeVCInRange(n, rt, p, int(req.vnet), int(req.set))
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

func refVCRangeAvail(n *Network, rt *refRouter, port, vnet, set int) (free int, creditSum int64) {
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

func refFreeVCInRange(n *Network, rt *refRouter, port, vnet, set int) (int, bool) {
	V := n.cfg.TotalVCs()
	lo := vnet*n.cfg.VCsPerVNet + set*n.vcsPerSet
	for k := 0; k < n.vcsPerSet; k++ {
		if rt.out[port*V+lo+k].owner == -1 {
			return lo + k, true
		}
	}
	return 0, false
}

func refSA(n *Network, rt *refRouter) {
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
			if ivc.state != vcActive || ivc.count == 0 {
				continue
			}
			if ivc.front.ready > now {
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

// fuzzRouting is a routing function with a chosen VC-set count whose
// routes are an arbitrary but fixed function of its arguments: one to
// maxHops next hops over any ports and sets, admissible or not.
type fuzzRouting struct{ sets, ports int }

func (f fuzzRouting) Name() string    { return "fuzz" }
func (f fuzzRouting) VCSets() int     { return f.sets }
func (f fuzzRouting) Adaptive() bool  { return true }
func (f fuzzRouting) MaxChoices() int { return maxHops }
func (f fuzzRouting) Route(router, src, dst, curSet int, buf []topology.Choice) []topology.Choice {
	rng := sim.NewRNG(uint64(router*131+src*31+dst*7+curSet), 3)
	for k := 1 + rng.Intn(maxHops); k > 0; k-- {
		buf = append(buf, topology.Choice{Port: rng.Intn(f.ports), VCSet: rng.Intn(f.sets)})
	}
	return buf
}

// randomizeRouter overwrites router r's state with a random but
// self-consistent one: any mix of idle, waiting and active input VCs
// over empty to full buffers, flits past, at and short of the pipeline
// delay, every active VC owning a distinct output VC, arbitrary credits,
// and arbiter pointers anywhere in the range the arbiters leave them in
// — including the un-wrapped saInPtr == V and saOutPtr == ports.
func randomizeRouter(n *Network, r int, rng *sim.RNG) {
	terms := n.topo.NumTerminals()
	n.cycle = sim.Cycle(2 + rng.Intn(100))
	for i := r * n.pv; i < (r+1)*n.pv; i++ {
		n.outOwner[i] = -1
		n.outCredits[i] = int32(rng.Intn(n.depth + 1))
	}
	for i := r * n.pv; i < (r+1)*n.pv; i++ {
		n.vcState[i] = uint8(rng.Intn(3))
		n.vcHead[i] = int32(rng.Intn(n.depth))
		n.vcCount[i] = int32(rng.Intn(n.depth + 1))
		if rng.Bernoulli(0.3) {
			n.vcCount[i] = 0
		}
		pkt := &Packet{Src: rng.Intn(terms), Dst: rng.Intn(terms), Size: 1 + rng.Intn(4)}
		for k := 0; k < n.depth; k++ {
			n.flits[i*n.depth+k] = flitEntry{pkt: pkt, seq: int32(k)}
		}
		front := &n.flits[i*n.depth+int(n.vcHead[i])]
		front.ready = n.cycle - 1 + sim.Cycle(rng.Intn(3))
		front.seq = 0
		if n.vcState[i] == vcActive {
			front.seq = int32(rng.Intn(pkt.Size))
		}
		n.vcHops[i] = uint8(1 + rng.Intn(maxHops))
		for k := 0; k < maxHops; k++ {
			n.hops[i*maxHops+k] = hop{port: int16(rng.Intn(n.ports)), set: int16(rng.Intn(n.cfg.VCsPerVNet / n.vcsPerSet))}
		}
		n.vcOutPort[i] = int16(rng.Intn(n.ports))
		n.vcOutVC[i] = int16(rng.Intn(n.vcs))
		if n.vcState[i] == vcActive {
			o := r*n.pv + int(n.vcOutPort[i])*n.vcs + int(n.vcOutVC[i])
			if n.outOwner[o] != -1 {
				n.vcState[i] = vcWaitVA // output VC taken: wait for one instead
			} else {
				n.outOwner[o] = int32(i - r*n.pv)
			}
		}
	}
	for rw := r * n.mw; rw < (r+1)*n.mw; rw++ {
		n.masks[rw] = n.recountMask(rw)
	}
	for rp := r * n.ports; rp < (r+1)*n.ports; rp++ {
		n.vaPtr[rp] = int32(rng.Intn(n.pv))
		n.saInPtr[rp] = int32(rng.Intn(n.vcs + 1))
		n.saOutPtr[rp] = int32(rng.Intn(n.ports + 1))
	}
}

// FuzzArbiterEquivalence checks phaseRC, phaseVA and phaseSA against
// the scan-based reference on random states of one router with 1-4
// local ports, 1-13 virtual networks, 1-3 VC sets and 1-2 VCs per set,
// after each phase: 5-8 ports of 1-64 VCs, so a router's masks take one
// word or several. vnetsRaw 0 is the default three virtual networks; a
// nonzero ptrRaw puts every output port's vaPtr on input VC ptrRaw-1
// (the committed corpus holds the word-boundary cases: the last bit of
// a mask word and bit 0 of the next).
func FuzzArbiterEquivalence(f *testing.F) {
	for seed := uint64(0); seed < 48; seed++ {
		f.Add(seed, uint8(seed), uint8(seed/4), uint8(seed/12), uint8(0), uint16(0))
	}
	f.Fuzz(func(t *testing.T, seed uint64, lpRaw, setsRaw, perSetRaw, vnetsRaw uint8, ptrRaw uint16) {
		m := topology.NewMesh(2, 1, 1+int(lpRaw)%4)
		cfg := DefaultConfig()
		cfg.BufDepth = 1 + int(seed%4)
		cfg.VNets = 1 + (int(vnetsRaw)+2)%13
		sets := 1 + int(setsRaw)%3
		cfg.VCsPerVNet = sets * (1 + int(perSetRaw)%2)
		if cfg.TotalVCs() > maxVCs {
			t.Skip("more VCs per port than a mask word holds")
		}
		n, err := New(cfg, m, fuzzRouting{sets: sets, ports: m.Ports()})
		if err != nil {
			t.Fatal(err)
		}
		defer n.Close()
		rng := sim.NewRNG(seed, 41)
		const r = 0
		for round := 0; round < 8; round++ {
			randomizeRouter(n, r, rng)
			if ptrRaw != 0 {
				for rp := r * n.ports; rp < (r+1)*n.ports; rp++ {
					n.vaPtr[rp] = int32(int(ptrRaw-1) % n.pv)
				}
			}
			ref := loadRef(n, r)
			check := func(phase string) {
				t.Helper()
				n.checkMasks(r)
				got := loadRef(n, r)
				// The reference's request scratch has no flat counterpart.
				got.saReq, got.saReqPort, got.vaIndex = ref.saReq, ref.saReqPort, ref.vaIndex
				if !reflect.DeepEqual(got, ref) {
					t.Fatalf("seed %d round %d (%s, %d VCs in %d sets): after %s the mask arbiters diverge from the scan reference\nmask: %+v\nscan: %+v",
						seed, round, m.Name(), n.vcs, sets, phase, got, ref)
				}
			}
			n.phaseRC(r)
			refRC(n, ref, r)
			check("RC")
			n.phaseVA(r)
			refVA(n, ref)
			check("VA")
			n.phaseSA(r)
			refSA(n, ref)
			check("SA")
		}
	})
}
