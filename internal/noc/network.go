package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// ejectionCredits is the effectively-infinite credit count given to
// local (ejection) output VCs, which sink into the NI without
// backpressure. It is never decremented; the value is kept modest so
// credit arithmetic over several VCs stays far from overflow.
const ejectionCredits = 1 << 20

// Network is a cycle-level NoC instance: routers, links, and network
// interfaces over a topology and routing function. It is not safe for
// concurrent use; parallelism happens *within* Step, across the shards
// of the embedded partition.
//
// Router state is laid out as flat per-field arrays, one element per
// record, so a router's state is a few contiguous runs. With R routers
// of P ports, V VCs per port, D-deep buffers and W mask words per
// router, the record indices are
//
//	port record  r*P + p          arbiter pointers, saGrant, outFlits, peer, rings
//	VC record    r*P*V + p*V + v  input-VC and output-VC fields
//	flit slot    VC record * D + k
//	ring slot    port record * ring length + cycle mod ring length
//	arrival byte (cycle mod K)*R*B + r*B + p, K arrival slots, B bytes per router
//	mask word    r*W + w          bit b is input VC w*wordVCs + b of router r
//
// (see DESIGN.md "Router state layout and mask arbiters").
type Network struct {
	cfg     Config
	topo    topology.Topology //simlint:derived construction input; the topology is part of the network definition
	routing topology.Routing  //simlint:derived construction input; routing functions are part of the network definition

	// Geometry, fixed at construction: routers, ports and local ports per
	// router, VCs per port, input VCs per router (ports*vcs), buffer
	// depth, link ring lengths (LinkLatency + RouterStages for flits,
	// CreditLatency + 1 for credits), VCs per routing VC set, mask words
	// per router and input VCs per full mask word, and the arrival
	// bytes' slots (the longer ring) and bytes per router (ports rounded
	// up to whole words).
	routers, ports, lp, vcs, pv, depth int //simlint:derived recomputed from cfg and the topology at construction
	flitRing, credRing, vcsPerSet      int //simlint:derived recomputed from cfg at construction
	mw, wordVCs                        int //simlint:derived recomputed from the geometry at construction
	arrSlots, arrStride                int //simlint:derived recomputed from the geometry at construction

	// Input VCs, by VC record: packet-progress state, the cached route
	// (vcHops entries of hops[i*maxHops:], valid in vcWaitVA), the held
	// output VC (valid in vcActive) and the flit FIFO cursor.
	vcState   []uint8
	vcHops    []uint8
	hops      []hop
	vcOutPort []int16
	vcOutVC   []int16
	vcHead    []int32
	vcCount   []int32
	flits     []flitEntry

	// Output VCs, by VC record: credit count for the downstream buffer
	// and the input VC (p*V + v within the router) holding the channel,
	// or -1 when free.
	outCredits []int32
	outOwner   []int32

	// By mask word: the router-wide input-VC masks.
	masks []vcMask //simlint:derived rebuilt by rederive from vcState and vcCount

	// By port record: the round-robin pointers (vaPtr per output port
	// over input VCs p*V + v; saInPtr per input port over its VCs;
	// saOutPtr per output port over input ports), the input VC each
	// granted output port switches this cycle, and flits traversed per
	// output port (utilization).
	vaPtr    []int32
	saInPtr  []int32
	saOutPtr []int32
	saGrant  []vcRef //simlint:derived per-cycle scratch, rewritten by every router step before it is read
	outFlits []uint64

	// By router: the output ports granted this cycle (the valid entries
	// of saGrant) and the energy event counters (see Energy).
	grants    []uint64 //simlint:derived per-cycle scratch, rewritten by every router step before it is read
	bufWrites []uint64
	bufReads  []uint64
	arbGrants []uint64

	// Inbound link rings, by port record, the arrival bytes that flag
	// their occupied slots (see packet.go), and the ring slots and
	// arrival slot offsets of the cycle being stepped.
	linkFlits                   []linkFlit
	linkCredits                 []int16 // -1 = empty
	arrivals                    []byte  //simlint:derived rebuilt by rederive from the rings
	rxFlit, txFlit              int     //simlint:derived recomputed from the clock by every Step
	rxCred, txCred              int     //simlint:derived recomputed from the clock by every Step
	rxArr, txArrFlit, txArrCred int     //simlint:derived recomputed from the clock by every Step

	// The packet table, by handle (see packet.go): the packet each live
	// handle names (nil for handle 0 and free handles), its route key
	// and its hop count, and the LIFO free list of released handles.
	// Encode walks the packets, not the handles; decode gives packet i
	// of the wire's table handle i+1 and an empty free list.
	pkts     []*Packet
	keys     []routeKey //simlint:derived filled from the packet's Src and Dst at take and on decode
	hopCnt   []int32
	free     []uint32 //simlint:derived which handles are free is host-side; decode starts an empty list
	freeSeen []uint64 //simlint:derived checkHandles scratch, rewritten by every check

	ifaces []Iface
	// niWork[r*lp + p] is set while the NI on local port p of router r
	// has a packet serializing or queued (the NI is not idle): the NIs
	// ingress and rearm visit, so an idle NI costs them one byte.
	niWork []bool //simlint:derived recomputed from the NIs by rederive

	cycle sim.Cycle
	Ledger

	// The step path (shard.go): shard partition, per-shard wake
	// schedules, worker pool and work counters — all derived or
	// host-side state, excluded from snapshots — and the per-shard
	// router scratch.
	partition                 //simlint:derived recomputed at construction; wake schedules rebuilt by rederive, counters restart at zero
	shardFn   func(i int)     //simlint:derived shardStep, bound once at construction
	scratch   []routerScratch //simlint:derived per-shard phase scratch, all zero between phases
	// peer[r*ports+p] is the far end of port p of router r: where r's
	// sent flits and returned credits land, and whom they wake. niAt
	// maps (r*lp + local port) to its terminal, and term maps a
	// terminal to its router and local port. The per-cycle sweeps must
	// not redo the topology's coordinate math.
	peer []portRef   //simlint:derived precomputed from the topology at construction
	niAt []int32     //simlint:derived precomputed from the topology at construction
	term []placement //simlint:derived precomputed from the topology at construction
	// The same for every router, so the phases never divide: vcInfo
	// decomposes an input-VC id p*V + v, and portBit[p] is where port p's
	// VC 0 sits in the router's masks, as word<<6 | bit.
	vcInfo  []vcInfo //simlint:derived precomputed from the geometry at construction
	portBit []int16  //simlint:derived precomputed from the geometry at construction
}

// maxVCs bounds the virtual channels per port (Config.TotalVCs), so
// that one port's VCs are a field of one mask word, and the ports per
// router, which index the bits of the one-word switch-allocation masks
// (grants, bids, VA's requested-ports set). Their product is unbounded:
// a router's VC masks take as many words as its ports need.
const maxVCs = 64

// maxHops bounds a routing function's MaxChoices: the admissible next
// hops cached per input VC (the stride of Network.hops).
const maxHops = 4

// vcMask is one word of a router's input-VC masks, one bit per input
// VC: buf is set while the VC's FIFO is non-empty, wait while it is in
// vcWaitVA, act while it is in vcActive. The arbiters walk these words
// instead of scanning VC state; a router with all of them zero has no
// work. A word holds as many whole ports as fit (64/V of them, V bits
// each, no port straddling two words), so bit b of word w is input VC
// w*wordVCs + b — the id p*V + v itself wherever P*V <= 64, which is
// every configuration this repository ships — and ascending (word, bit)
// order is ascending id order.
type vcMask struct {
	buf, wait, act uint64
}

// vcInfo decomposes the input-VC id p*V + v: its port, its VC within
// the port, and that VC's virtual network and routing VC set.
type vcInfo struct {
	port, vc, vnet, set uint8
}

// hop is one cached admissible next hop of a routed head flit.
type hop struct {
	port, set int16
}

// placement is where a terminal attaches: its router and local port.
type placement struct {
	router int32
	port   int16
}

// vcRef names an input VC of a router by port and VC index.
type vcRef struct {
	port, vc int16
}

// portRef is the far end of a port: the port record (router*ports +
// port) whose inbound rings this port's sends land in, and its router.
// A local port's far end is the port itself (the NI's credit ring lives
// on the router's own port record); router is -1 where no link exists.
type portRef struct {
	slot, router int32
}

// routerScratch is the per-shard scratch of one router's VA and SA
// phases (a shard steps one router at a time). Every word of req and
// bid is zero between phases.
type routerScratch struct {
	route []topology.Choice // routing-function output, before packing into hops
	set   []int16           // per input VC: the VC set of the hop it requests this cycle
	req   []uint64          // [out port][mask word]: input VCs requesting an output VC
	saReq []int16           // per input port: the VC it nominates
	bid   []uint64          // per output port: input ports bidding for it
}

// Option configures a Network at construction.
type Option func(*Network)

// WithWorkers steps the network's routers as min(w, routers) shards on
// as many workers (w <= 1, the default, is one shard stepped on the
// caller). Results are bit-identical for every w. The exhaustive
// reference sweep (Config.DisableGating) ignores it.
func WithWorkers(w int) Option {
	return func(n *Network) { n.workers = w }
}

// New constructs a cycle-level network over the given topology and
// routing function.
func New(cfg Config, topo topology.Topology, routing topology.Routing, opts ...Option) (*Network, error) {
	if err := cfg.Validate(routing); err != nil {
		return nil, err
	}
	if topo.Ports() > maxVCs {
		return nil, fmt.Errorf("noc: topology %s has %d ports per router, limit %d", topo.Name(), topo.Ports(), maxVCs)
	}
	n := &Network{
		cfg:       cfg,
		topo:      topo,
		routing:   routing,
		routers:   topo.NumRouters(),
		ports:     topo.Ports(),
		lp:        topo.LocalPorts(),
		vcs:       cfg.TotalVCs(),
		pv:        topo.Ports() * cfg.TotalVCs(),
		depth:     cfg.BufDepth,
		flitRing:  cfg.LinkLatency + cfg.RouterStages,
		credRing:  cfg.CreditLatency + 1,
		vcsPerSet: cfg.VCsPerVNet / routing.VCSets(),
		Ledger:    NewLedger(),
		pkts:      make([]*Packet, 1),
		keys:      make([]routeKey, 1),
		hopCnt:    make([]int32, 1),
	}
	for _, o := range opts {
		o(n)
	}
	perWord := 64 / n.vcs // whole ports per mask word
	n.mw = (n.ports + perWord - 1) / perWord
	n.wordVCs = perWord * n.vcs
	n.portBit = make([]int16, n.ports)
	n.vcInfo = make([]vcInfo, n.pv)
	for p := 0; p < n.ports; p++ {
		n.portBit[p] = int16(p/perWord<<6 + p%perWord*n.vcs)
		for v := 0; v < n.vcs; v++ {
			n.vcInfo[p*n.vcs+v] = vcInfo{
				port: uint8(p), vc: uint8(v),
				vnet: uint8(v / cfg.VCsPerVNet),
				set:  uint8(v % cfg.VCsPerVNet / n.vcsPerSet),
			}
		}
	}

	R := n.routers
	n.vcState = make([]uint8, R*n.pv)
	n.vcHops = make([]uint8, R*n.pv)
	n.hops = make([]hop, R*n.pv*maxHops)
	n.vcOutPort = make([]int16, R*n.pv)
	n.vcOutVC = make([]int16, R*n.pv)
	n.vcHead = make([]int32, R*n.pv)
	n.vcCount = make([]int32, R*n.pv)
	n.flits = make([]flitEntry, R*n.pv*n.depth)
	n.outCredits = make([]int32, R*n.pv)
	n.outOwner = make([]int32, R*n.pv)
	n.masks = make([]vcMask, R*n.mw)
	n.vaPtr = make([]int32, R*n.ports)
	n.saInPtr = make([]int32, R*n.ports)
	n.saOutPtr = make([]int32, R*n.ports)
	n.saGrant = make([]vcRef, R*n.ports)
	n.outFlits = make([]uint64, R*n.ports)
	n.grants = make([]uint64, R)
	n.bufWrites = make([]uint64, R)
	n.bufReads = make([]uint64, R)
	n.arbGrants = make([]uint64, R)
	n.linkFlits = make([]linkFlit, R*n.ports*n.flitRing)
	n.linkCredits = make([]int16, R*n.ports*n.credRing)
	n.arrSlots = max(n.flitRing, n.credRing)
	n.arrStride = (n.ports + 7) &^ 7
	n.arrivals = make([]byte, n.arrSlots*R*n.arrStride)
	for i := range n.linkCredits {
		n.linkCredits[i] = -1
	}
	for i := range n.outOwner {
		n.outOwner[i] = -1
		n.outCredits[i] = int32(n.depth)
	}
	for r := 0; r < R; r++ { // ejection VCs sink without backpressure
		for o := r * n.pv; o < r*n.pv+n.lp*n.vcs; o++ {
			n.outCredits[o] = ejectionCredits
		}
	}

	n.peer = make([]portRef, R*n.ports)
	n.niAt = make([]int32, R*n.lp)
	n.niWork = make([]bool, R*n.lp)
	for r := 0; r < R; r++ {
		for p := 0; p < n.ports; p++ {
			rp := r*n.ports + p
			switch nb, nbp, ok := topo.Link(r, p); {
			case p < n.lp:
				n.peer[rp] = portRef{slot: int32(rp), router: int32(r)}
				n.niAt[r*n.lp+p] = int32(topo.TerminalAt(r, p))
			case ok:
				n.peer[rp] = portRef{slot: int32(nb*n.ports + nbp), router: int32(nb)}
			default:
				n.peer[rp] = portRef{slot: -1, router: -1}
			}
		}
	}

	n.ifaces = make([]Iface, topo.NumTerminals())
	n.term = make([]placement, len(n.ifaces))
	for t := range n.ifaces {
		r, p := topo.RouterOf(t)
		n.ifaces[t] = newIface(t, r, p, cfg)
		n.term[t] = placement{router: int32(r), port: int16(p)}
	}

	n.partition.init(R, cfg.DisableGating)
	n.shardFn = n.shardStep
	n.scratch = make([]routerScratch, len(n.shards))
	for si := range n.scratch {
		n.scratch[si] = routerScratch{
			route: make([]topology.Choice, 0, maxHops),
			set:   make([]int16, n.pv),
			req:   make([]uint64, n.ports*n.mw),
			saReq: make([]int16, n.ports),
			bid:   make([]uint64, n.ports),
		}
	}
	n.rederive()
	return n, nil
}

// Cfg reports the network's configuration.
func (n *Network) Cfg() Config { return n.cfg }

// Topology reports the network's topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Cycle reports the next cycle to be simulated (0 before the first Step).
func (n *Network) Cycle() sim.Cycle { return n.cycle }

// Name identifies the network as a co-simulation backend.
func (n *Network) Name() string { return "detailed" }

// Inject queues a packet for injection at its source NI at cycle `at`
// (which must not precede already-queued packets at the same NI and
// vnet). The packet's ID and CreatedAt are assigned here.
func (n *Network) Inject(p *Packet, at sim.Cycle) {
	if p.Size < 1 {
		panic(fmt.Sprintf("noc: packet with size %d", p.Size))
	}
	if p.VNet < 0 || p.VNet >= n.cfg.VNets {
		panic(fmt.Sprintf("noc: packet vnet %d out of range", p.VNet))
	}
	if p.Src < 0 || p.Src >= len(n.ifaces) || p.Dst < 0 || p.Dst >= len(n.ifaces) {
		panic(fmt.Sprintf("noc: packet endpoints %d->%d out of range", p.Src, p.Dst))
	}
	n.Admit(p, at)
	h := n.take(p)
	ni := &n.ifaces[p.Src]
	ni.enqueue(p, h, n.pkts)
	n.niWork[ni.router*n.lp+ni.localPort] = true
	n.wakeRouter(int32(ni.router), at, n.cycle)
}

// Step simulates one cycle (the cycle reported by Cycle) and advances
// the clock. With activity gating enabled (the default) each shard
// sweeps only its active set, in ascending router order, all five
// phases of a router fused (stepRouter) and its wakes scheduled right
// behind them (rearm); a skipped router is a byte-level no-op under
// every phase (see active.go). The exhaustive
// path keeps the original five-barrier structure over every router: it
// is the reference the gated path is tested against, kept structurally
// simple rather than fast.
func (n *Network) Step() {
	n.setSlots()
	if n.exhaustive {
		for r := 0; r < n.routers; r++ {
			n.phaseIngress(r)
		}
		for r := 0; r < n.routers; r++ {
			n.phaseRC(r)
		}
		for r := 0; r < n.routers; r++ {
			n.phaseVA(r)
		}
		for r := 0; r < n.routers; r++ {
			n.phaseSA(r)
		}
		for r := 0; r < n.routers; r++ {
			n.phaseST(r)
		}
		n.stepped++
	} else {
		n.stepSharded(n.cycle, n.shardFn)
	}
	n.cycle++
	n.checkHandles()
}

// shardStep runs one shard's cycle: drain its wake schedule and sweep
// the active routers, each one's fused pipeline followed at once by its
// own wakes.
func (n *Network) shardStep(si int) {
	s := &n.shards[si]
	s.active = s.gate.due(n.cycle)
	for _, r := range s.active {
		n.stepRouter(int(r))
		n.rearm(s, r)
	}
}

// rearm converts router r's sends of this cycle and its residual state
// into future wakes. It runs right after stepRouter(r), while r's
// records are still in cache. That is safe because it reads only r's
// own records — the per-cycle scratch stepRouter(r) just wrote (grants,
// saGrant), r's masks and r's NIs, none of which another router's step
// writes — and writes only the shard's own schedule (bits of cycles
// after this one: due() has already folded and cleared this cycle's)
// and outbox, which no stepRouter reads. Wakes addressed outside the
// shard's range are buffered through wakeOut.
func (n *Network) rearm(s *shard, r32 int32) {
	now := n.cycle
	r := int(r32)
	rp := r * n.ports
	// Every switch traversal this cycle produced up to two future
	// events: a flit due at the downstream router at its ingest cycle
	// and a credit arriving at the freed input slot's upstream consumer
	// (the neighbour across the input port, or this router itself for
	// its NI's credit ring on a local port).
	for g := n.grants[r]; g != 0; g &= g - 1 {
		p := bits.TrailingZeros64(g)
		if p >= n.lp {
			s.wakeOut(n.peer[rp+p].router, now+sim.Cycle(n.flitRing-1), now)
		}
		s.wakeOut(n.peer[rp+int(n.saGrant[rp+p].port)].router, now+sim.Cycle(n.cfg.CreditLatency), now)
	}
	// A router whose local state can still make progress re-arms for
	// the next cycle: buffered or mid-allocation input VCs retry
	// RC/VA/SA, and a serializing or eligible NI retries injection.
	// Conservative (a blocked VC spins), but spinning is exactly what
	// the exhaustive sweep does, so state matches. A queued packet not
	// yet created wakes the router at its creation cycle instead.
	busy := n.occupied(r)
	for p := 0; p < n.lp && !busy; p++ {
		if !n.niWork[r*n.lp+p] {
			continue
		}
		ni := &n.ifaces[n.niAt[r*n.lp+p]]
		if busy = ni.cur != 0; busy || ni.queued == 0 {
			continue
		}
		for v := 0; v < len(ni.queues) && !busy; v++ {
			if ni.qHead[v] >= len(ni.queues[v]) {
				continue
			}
			if at := n.pkts[ni.queues[v][ni.qHead[v]]].CreatedAt; at > now+1 {
				s.gate.wake(r32, at, now)
			} else {
				busy = true
			}
		}
	}
	if busy {
		s.gate.markNext(r32)
	}
}

// NextEventCycle reports the earliest cycle at or after the current
// one at which any router must run, and false when nothing is pending
// anywhere in the network. With gating disabled every cycle is an
// event.
func (n *Network) NextEventCycle() (sim.Cycle, bool) { return n.nextEvent(n.cycle) }

// AdvanceTo simulates through the end of cycle c-1, fast-forwarding
// over spans with an empty active set instead of sweeping them;
// bit-identical to calling Step c-Cycle() times.
func (n *Network) AdvanceTo(c sim.Cycle) { n.advanceTo(&n.cycle, c, n.Step) }

// ActivityStats reports the gating layer's work accounting.
func (n *Network) ActivityStats() ActivityStats { return n.activityStats(&n.packets) }

// rederive rebuilds what is not part of the network's state from what
// is; construction and a successful decode both end with it. The NI
// backlog counts, the NI work flags and the VC masks are recounted,
// and the wake schedule is reconstructed: wake every router once (idle
// ones no-op and retire after one sweep) and re-arm a wake for every
// flit or credit already in flight on a ring, addressed to the ring's
// router — its consumer — at its arrival cycle, whose arrival byte is
// flagged. NI injection queues need no scan: every router runs the
// next cycle, and its rearm schedules future injections.
func (n *Network) rederive() {
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		ni.queued = ni.pending()
		n.niWork[ni.router*n.lp+ni.localPort] = !ni.idle()
	}
	for rw := range n.masks {
		n.masks[rw] = n.recountMask(rw)
	}
	n.resetWake()
	clear(n.arrivals)
	now := n.cycle
	for i := range n.linkFlits {
		if n.linkFlits[i].ref != 0 {
			n.rearrive(i/n.flitRing, ringArrival(now, i%n.flitRing, n.flitRing), arrFlit)
		}
	}
	for i, vc := range n.linkCredits {
		if vc != -1 {
			n.rearrive(i/n.credRing, ringArrival(now, i%n.credRing, n.credRing), arrCred)
		}
	}
}

// rearrive flags an in-flight arrival at port record rp due at cycle
// at, and wakes its router then.
func (n *Network) rearrive(rp int, at sim.Cycle, bit byte) {
	r := rp / n.ports
	n.arrivals[n.arrIndex(at, r, rp-r*n.ports)] |= bit
	n.wakeRouter(int32(r), at, n.cycle)
}

// arrIndex locates the arrival byte of port p of router r for cycle at.
func (n *Network) arrIndex(at sim.Cycle, r, p int) int {
	return (int(at%sim.Cycle(n.arrSlots))*n.routers+r)*n.arrStride + p
}

// ringArrival maps an occupied ring slot back to the unique upcoming
// cycle (in [now, now+size)) it is addressed to.
func ringArrival(now sim.Cycle, slot, size int) sim.Cycle {
	return now + sim.Cycle((slot-int(now%sim.Cycle(size))+size)%size)
}

// Run simulates the given number of cycles, fast-forwarding idle
// spans.
func (n *Network) Run(cycles int) {
	n.AdvanceTo(n.cycle + sim.Cycle(cycles))
}

// Drain returns all packets delivered at or before the current cycle
// that have not been returned before, recording their latency
// statistics, and frees their handles. The returned slice is reused by
// the next Drain call.
func (n *Network) Drain() []*Packet {
	out := n.Scratch()
	for t := range n.ifaces {
		out = n.ifaces[t].drainInto(n, out, n.cycle)
	}
	out = n.Settle(out)
	n.checkHandles()
	return out
}

// FlitsSwitched reports total flits traversed across all router
// output ports (including ejection).
func (n *Network) FlitsSwitched() uint64 {
	var total uint64
	for _, c := range n.outFlits {
		total += c
	}
	return total
}

// linked reports whether port record rp is a network port with a link.
func (n *Network) linked(rp int) bool {
	return rp%n.ports >= n.lp && n.peer[rp].router >= 0
}

// AvgLinkUtilization reports mean flits per cycle per network link
// (ejection and injection excluded) since construction.
func (n *Network) AvgLinkUtilization() float64 {
	if n.cycle == 0 {
		return 0
	}
	var flits uint64
	links := 0
	for rp := range n.peer {
		if n.linked(rp) {
			flits += n.outFlits[rp]
			links++
		}
	}
	if links == 0 {
		return 0
	}
	return float64(flits) / float64(links) / float64(n.cycle)
}

// BufferedFlits reports flits currently held in router input buffers,
// counting a link flit as buffered from its arrival on (see pending).
func (n *Network) BufferedFlits() int {
	total := n.pending()
	for _, c := range n.vcCount {
		total += int(c)
	}
	return total
}

// pending counts the link flits that have arrived but not yet been
// taken in: those due in the next RouterStages-1 cycles, which a
// router that buffered each flit on arrival would already hold. The
// buffer-write count and the checkpoint count them as buffered.
func (n *Network) pending() int {
	k, rx := 0, int(n.cycle%sim.Cycle(n.flitRing))
	for rp := range n.peer {
		ring := n.linkFlits[rp*n.flitRing:][:n.flitRing]
		for d := 0; d < n.cfg.RouterStages-1; d++ {
			if ring[(rx+d)%n.flitRing].ref != 0 {
				k++
			}
		}
	}
	return k
}

// settle takes in every pending flit (see pending) now, with the ready
// cycle it would have been taken in at. Every phase already handles a
// buffered flit that is not ready, so settling changes nothing a later
// cycle computes; a checkpoint settles first, so it records each
// pending flit where a router that buffered it on arrival holds it.
func (n *Network) settle() {
	now := n.cycle
	for rp := range n.peer {
		r, p := rp/n.ports, rp%n.ports
		for d := 0; d < n.cfg.RouterStages-1; d++ {
			at := now + sim.Cycle(d)
			f := &n.linkFlits[rp*n.flitRing+int(at%sim.Cycle(n.flitRing))]
			if f.ref == 0 {
				continue
			}
			n.pushFlit(r, p, int(f.vc), f.entry(at))
			*f = linkFlit{}
			n.arrivals[n.arrIndex(at, r, p)] &^= arrFlit
		}
	}
}

// Quiescent reports whether no packet is queued, serializing, in a
// buffer, on a link, or awaiting drain anywhere in the network.
func (n *Network) Quiescent() bool {
	if n.BufferedFlits() > 0 {
		return false
	}
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		if !ni.idle() || ni.dHead < len(ni.deliveries) {
			return false
		}
	}
	for i := range n.linkFlits {
		if n.linkFlits[i].ref != 0 {
			return false
		}
	}
	return true
}
