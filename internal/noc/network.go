package noc

import (
	"fmt"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/stats"
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
type Network struct {
	cfg     Config
	topo    topology.Topology
	routing topology.Routing //simlint:derived construction input; routing functions are part of the network definition

	routers []router
	links   [][]*link // inbound link per (router, port); nil if none
	ifaces  []Iface

	cycle     sim.Cycle
	vcsPerSet int //simlint:derived recomputed from cfg at construction

	tracker   *stats.LatencyTracker
	injected  uint64
	delivered uint64
	nextID    uint64
	drainBuf  []*Packet //simlint:derived drain scratch, cleared on restore before reuse

	// The step path (shard.go): shard partition, per-shard wake
	// schedules, worker pool and work counters — all derived or
	// host-side state, excluded from snapshots — and the packet free
	// list.
	partition             //simlint:derived recomputed at construction; wake schedules re-seeded by rebuildWake after restore, counters restart at zero
	shardFn   func(i int) //simlint:derived shardStep, bound once at construction
	pool      packetPool  //simlint:derived host-side free list, never simulated state
	// nbrOf[r*ports+p] is the router across port p of r, and
	// xLink[r*ports+p] that neighbour's inbound link object (where r's
	// sent flits land and r's output-port credits return); -1/nil when
	// the port has no link. The per-cycle sweeps must not redo the
	// topology's coordinate math.
	nbrOf []int32 //simlint:derived precomputed from the topology at construction
	xLink []*link //simlint:derived precomputed from the topology at construction
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
	n := &Network{
		cfg:       cfg,
		topo:      topo,
		routing:   routing,
		vcsPerSet: cfg.VCsPerVNet / routing.VCSets(),
		tracker:   stats.NewLatencyTracker(4, 512),
	}
	for _, o := range opts {
		o(n)
	}

	R := topo.NumRouters()
	ports := topo.Ports()
	V := cfg.TotalVCs()
	lp := topo.LocalPorts()

	n.routers = make([]router, R)
	n.links = make([][]*link, R)
	for r := 0; r < R; r++ {
		n.routers[r] = newRouter(ports, V, cfg.BufDepth)
		n.links[r] = make([]*link, ports)
		// Ejection VCs sink without backpressure.
		for p := 0; p < lp; p++ {
			for v := 0; v < V; v++ {
				n.routers[r].out[p*V+v].credits = ejectionCredits
			}
		}
		for p := lp; p < ports; p++ {
			for v := 0; v < V; v++ {
				n.routers[r].out[p*V+v].credits = int32(cfg.BufDepth)
			}
		}
	}
	// Create each router's inbound links (written by the upstream router).
	for r := 0; r < R; r++ {
		for p := lp; p < ports; p++ {
			if _, _, ok := topo.Link(r, p); ok {
				// The link arriving at (r, p) comes from the neighbor
				// this port connects to; its object lives at the
				// receiving side.
				n.links[r][p] = newLink(cfg.LinkLatency, cfg.CreditLatency)
			}
		}
	}

	n.ifaces = make([]Iface, topo.NumTerminals())
	for t := range n.ifaces {
		r, p := topo.RouterOf(t)
		n.ifaces[t] = newIface(t, r, p, cfg)
	}

	n.partition.init(R, cfg.DisableGating)
	n.shardFn = n.shardStep
	n.nbrOf = make([]int32, R*ports)
	n.xLink = make([]*link, R*ports)
	for r := 0; r < R; r++ {
		for p := 0; p < ports; p++ {
			n.nbrOf[r*ports+p] = -1
			if nb, nbp, ok := topo.Link(r, p); ok {
				n.nbrOf[r*ports+p] = int32(nb)
				n.xLink[r*ports+p] = n.links[nb][nbp]
			}
		}
	}
	return n, nil
}

// Cfg reports the network's configuration.
func (n *Network) Cfg() Config { return n.cfg }

// Topology reports the network's topology.
func (n *Network) Topology() topology.Topology { return n.topo }

// Cycle reports the next cycle to be simulated (0 before the first Step).
func (n *Network) Cycle() sim.Cycle { return n.cycle }

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
	p.ID = n.nextID
	n.nextID++
	p.CreatedAt = at
	n.ifaces[p.Src].enqueue(p)
	n.injected++
	r, _ := n.topo.RouterOf(p.Src)
	n.wakeRouter(int32(r), at, n.cycle)
}

// NewPacket returns a zeroed packet, recycled from the network's free
// list when one is available. Callers that use it must hand delivered
// packets back through Recycle once they are done with them.
func (n *Network) NewPacket() *Packet { return n.pool.get() }

// Recycle returns a drained packet to the free list. The caller must
// hold the only remaining reference: a recycled packet is zeroed and
// will be reused by a future NewPacket.
func (n *Network) Recycle(p *Packet) { n.pool.put(p) }

// Step simulates one cycle (the cycle reported by Cycle) and advances
// the clock. The five phases each touch only router-owned state plus
// link-ring slots addressed at least one cycle in the future, so
// shards of routers may run in parallel — and, for the same reason,
// all five phases of one router may run fused in a single sweep
// (stepRouter) with no barrier in between: no phase ever reads a slot
// another router wrote this cycle. With activity gating enabled (the
// default) each shard sweeps only its active set, in ascending router
// order; a skipped router is a byte-level no-op under every phase (see
// active.go). The exhaustive path keeps the original five-barrier
// structure over every router: it is the reference the gated path is
// tested against, kept structurally simple rather than fast.
func (n *Network) Step() {
	if n.exhaustive {
		for r := range n.routers {
			n.phaseIngress(r)
		}
		for r := range n.routers {
			n.phaseRC(r)
		}
		for r := range n.routers {
			n.phaseVA(r)
		}
		for r := range n.routers {
			n.phaseSA(r)
		}
		for r := range n.routers {
			n.phaseST(r)
		}
		n.stepped++
	} else {
		n.stepSharded(n.cycle, n.shardFn)
	}
	n.cycle++
}

// shardStep runs one shard's cycle: drain its wake schedule, sweep the
// active routers' pipelines, and run the shard's wake pass. The sweep
// is shaped to the active-set size: with few routers the per-pass
// loop overhead dominates, so fuse; near full occupancy the
// phase-major order wins (one phase's code and branch history stay hot
// across the whole list). Both shapes are bit-identical and the
// active-set size is deterministic, so the choice is free. The
// phase-major loops carry the same occ == 0 skip as the fused
// stepRouter (see there for why it is byte-identical).
func (n *Network) shardStep(si int) {
	s := &n.shards[si]
	act := s.gate.due(n.cycle)
	s.active = act
	if len(act) == 0 {
		return
	}
	if 2*len(act) < int(s.hi-s.lo) {
		for _, r := range act {
			n.stepRouter(int(r))
		}
	} else {
		for _, r := range act {
			n.phaseIngress(int(r))
		}
		for _, r := range act {
			if n.routers[r].occ > 0 {
				n.phaseRC(int(r))
			}
		}
		for _, r := range act {
			if n.routers[r].occ > 0 {
				n.phaseVA(int(r))
			}
		}
		for _, r := range act {
			if n.routers[r].occ > 0 {
				n.phaseSA(int(r))
			} else {
				clearGrants(&n.routers[r])
			}
		}
		for _, r := range act {
			if n.routers[r].occ > 0 {
				n.phaseST(int(r))
			}
		}
	}
	n.wakePass(s)
}

// wakePass runs after a shard's sweep and converts this cycle's sends
// and the active routers' residual state into future wakes. It reads
// only freshly written per-cycle scratch (saGrant) and persistent
// state, and writes only its own shard's schedule: wakes addressed
// outside the shard's range are buffered through wakeOut.
func (n *Network) wakePass(s *shard) {
	now := n.cycle
	V := n.cfg.TotalVCs()
	lp := n.topo.LocalPorts()
	ports := n.topo.Ports()
	linkLat := sim.Cycle(n.cfg.LinkLatency)
	credLat := sim.Cycle(n.cfg.CreditLatency)
	for _, r32 := range s.active {
		r := int(r32)
		rt := &n.routers[r]
		// Every switch traversal this cycle produced up to two future
		// events: a flit arriving at the downstream router and a credit
		// arriving at the freed input slot's upstream consumer (the
		// neighbour across the input port, or this router's own NI
		// credit ring for a local port).
		for p := 0; p < ports; p++ {
			g := rt.saGrant[p]
			if g < 0 {
				continue
			}
			if p >= lp {
				s.wakeOut(n.nbrOf[r*ports+p], now+linkLat, now)
			}
			if ip := int(g) / V; ip >= lp {
				s.wakeOut(n.nbrOf[r*ports+ip], now+credLat, now)
			} else {
				s.gate.wakeAt(r32, now+credLat, now)
			}
		}
		// A router whose local state can still make progress re-arms
		// for the next cycle: buffered or mid-allocation input VCs
		// retry RC/VA/SA, and a serializing or eligible NI retries
		// injection. Conservative (a blocked VC spins), but spinning is
		// exactly what the exhaustive sweep does, so state matches. The
		// occ counter stands in for a walk over the input VCs.
		busy := rt.occ > 0
		if !busy {
			for p := 0; p < lp && !busy; p++ {
				ni := &n.ifaces[n.topo.TerminalAt(r, p)]
				if ni.cur != nil {
					busy = true
					break
				}
				for v := range ni.queues {
					if ni.qHead[v] >= len(ni.queues[v]) {
						continue
					}
					if at := ni.queues[v][ni.qHead[v]].CreatedAt; at > now+1 {
						s.gate.wake(r32, at, now)
					} else {
						busy = true
						break
					}
				}
			}
		}
		if busy {
			s.gate.markNext(r32)
		}
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
func (n *Network) ActivityStats() ActivityStats { return n.activityStats(&n.pool) }

// rebuildWake reconstructs the wake schedule from restored state: wake
// every router once (idle ones no-op and retire after one sweep) and
// re-arm a wake for every flit or credit already in flight on a link
// ring, addressed to its consumer at its arrival cycle. NI injection
// queues need no scan: every router runs the first post-restore cycle,
// and its wake pass re-arms future injections.
func (n *Network) rebuildWake() {
	n.resetWake()
	now := n.cycle
	for r := range n.links {
		for p, lnk := range n.links[r] {
			if lnk == nil {
				continue
			}
			// Flits on r's inbound link are consumed by r's ingress;
			// credits on the same object return to the neighbour across
			// the port.
			for s := range lnk.flits {
				if lnk.flits[s].pkt != nil {
					n.wakeRouter(int32(r), ringArrival(now, s, len(lnk.flits)), now)
				}
			}
			nb, _, _ := n.topo.Link(r, p)
			for s := range lnk.credits {
				if lnk.credits[s] != -1 {
					n.wakeRouter(int32(nb), ringArrival(now, s, len(lnk.credits)), now)
				}
			}
		}
	}
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		r, _ := n.topo.RouterOf(t)
		for s := range ni.creditRing.credits {
			if ni.creditRing.credits[s] != -1 {
				n.wakeRouter(int32(r), ringArrival(now, s, len(ni.creditRing.credits)), now)
			}
		}
	}
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
// statistics. The returned slice is reused by the next Drain call.
func (n *Network) Drain() []*Packet {
	out := n.drainBuf[:0]
	for t := range n.ifaces {
		out = n.ifaces[t].drainInto(out, n.cycle)
	}
	for _, p := range out {
		n.tracker.Record(p.Class,
			float64(p.QueueingLatency()), float64(p.NetworkLatency()), p.Hops)
	}
	n.delivered += uint64(len(out))
	n.drainBuf = out
	return out
}

// Tracker reports latency statistics of drained packets.
func (n *Network) Tracker() *stats.LatencyTracker { return n.tracker }

// Injected reports packets accepted by Inject.
func (n *Network) Injected() uint64 { return n.injected }

// Delivered reports packets returned by Drain.
func (n *Network) Delivered() uint64 { return n.delivered }

// InFlight reports packets injected but not yet drained.
func (n *Network) InFlight() int { return int(n.injected - n.delivered) }

// FlitsSwitched reports total flits traversed across all router
// output ports (including ejection).
func (n *Network) FlitsSwitched() uint64 {
	var total uint64
	for r := range n.routers {
		for _, c := range n.routers[r].outFlits {
			total += c
		}
	}
	return total
}

// AvgLinkUtilization reports mean flits per cycle per network link
// (ejection and injection excluded) since construction.
func (n *Network) AvgLinkUtilization() float64 {
	if n.cycle == 0 {
		return 0
	}
	lp := n.topo.LocalPorts()
	var flits uint64
	links := 0
	for r := range n.routers {
		for p := lp; p < n.topo.Ports(); p++ {
			if _, _, ok := n.topo.Link(r, p); ok {
				flits += n.routers[r].outFlits[p]
				links++
			}
		}
	}
	if links == 0 {
		return 0
	}
	return float64(flits) / float64(links) / float64(n.cycle)
}

// BufferedFlits reports flits currently held in router input buffers.
func (n *Network) BufferedFlits() int {
	total := 0
	for r := range n.routers {
		for i := range n.routers[r].in {
			total += n.routers[r].in[i].buf.len()
		}
	}
	return total
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
	for r := range n.links {
		for _, l := range n.links[r] {
			if l == nil {
				continue
			}
			for _, f := range l.flits {
				if f.pkt != nil {
					return false
				}
			}
		}
	}
	return true
}
