package noc

import (
	"fmt"
	"math/bits"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// Deflection is a bufferless, deflection-routed network (BLESS/CHIPPER
// class): routers hold no flit buffers; every flit that arrives in a
// cycle must leave the same cycle, on its preferred productive output
// if free, on any other output otherwise (a deflection). Flits of a
// packet route independently and reassemble at the destination NI.
// Oldest-first arbitration makes the network livelock-free: the oldest
// flit in flight always wins its productive port, so it strictly
// approaches its destination.
//
// Deflection routers trade buffer area and energy for extra link
// traversals under load, which is exactly the kind of design choice
// the co-simulation framework exists to evaluate in system context.
type Deflection struct {
	cfg     DeflectConfig //simlint:derived construction input; restore validates geometry against it
	topo    gridTopo      //simlint:derived recomputed from cfg at construction
	routers []deflRouter
	ifaces  []deflIface

	cycle sim.Cycle
	Ledger

	// The step path (shard.go; see Network's fields): all derived or
	// host-side state, excluded from snapshots.
	partition             //simlint:derived recomputed at construction; wake schedules rebuilt by rederive, counters restart at zero
	stepFn    func(i int) //simlint:derived shardStep, bound once at construction
	// nbrOf[r*4+d] is the router across direction d (-1 when the edge
	// port has no link): where r's flits land, and whom they wake.
	nbrOf []int32 //simlint:derived precomputed from the topology at construction
}

// DeflectConfig parameterizes the bufferless network.
type DeflectConfig struct {
	// EjectWidth is the flits per cycle the NI can sink; excess flits
	// at their destination deflect and retry.
	EjectWidth int
	// InjectQueueCap bounds the per-terminal source queue in flits
	// (0 = unbounded).
	InjectQueueCap int
	// DisableGating forces the exhaustive every-router-every-cycle
	// sweep; see Config.DisableGating.
	DisableGating bool
}

// DefaultDeflectConfig returns the standard single-ejector router.
func DefaultDeflectConfig() DeflectConfig {
	return DeflectConfig{EjectWidth: 1}
}

// gridTopo is the mesh access the deflection router needs for
// productive-direction computation.
type gridTopo interface {
	topology.Topology
	Coord(router int) (x, y int)
	Width() int
	Height() int
	Wrap() bool
}

// deflFlit is one independently-routed flit.
type deflFlit struct {
	pkt *Packet
	seq int32
	age sim.Cycle // injection cycle: smaller = older = higher priority
}

// deflRouter holds the per-router link-slot state: slots[c&1][dir] is
// the flit arriving from direction dir at cycle c. A router stepping
// cycle c reads and empties slots[c&1]; its neighbours' sends of cycle
// c write slots[(c+1)&1], so no slot is read and written in one cycle.
type deflRouter struct {
	slots [2][4]deflFlit

	scratch []deflFlit //simlint:derived assignment working set, rebuilt by every router step before it is read
	sent    uint8      //simlint:derived directions sent to this cycle, rewritten by every router step before rearm reads it

	// Per-router counters (aggregated on demand) so concurrent shards
	// never contend on shared state.
	deflects uint64
	flitHops uint64
	ejects   uint64
}

// deflIface is the terminal-side state: source flit queue and
// reassembly counters.
type deflIface struct {
	queue      []deflFlit
	qHead      int
	reassembly map[*Packet]int32
	deliveries []*Packet
	dHead      int
}

// NewDeflection builds a bufferless network over a mesh or torus.
func NewDeflection(cfg DeflectConfig, topo topology.Topology, opts ...DeflectOption) (*Deflection, error) {
	g, ok := topo.(gridTopo)
	if !ok {
		return nil, fmt.Errorf("noc: deflection routing requires a grid topology, got %s", topo.Name())
	}
	if topo.LocalPorts() != 1 {
		return nil, fmt.Errorf("noc: deflection routing supports concentration 1, got %d", topo.LocalPorts())
	}
	if cfg.EjectWidth < 1 {
		return nil, fmt.Errorf("noc: eject width must be >= 1, got %d", cfg.EjectWidth)
	}
	n := &Deflection{
		cfg:     cfg,
		topo:    g,
		routers: make([]deflRouter, topo.NumRouters()),
		ifaces:  make([]deflIface, topo.NumTerminals()),
		Ledger:  NewLedger(),
	}
	// Every flit of a packet counts its own router visits.
	n.hopsPerFlit = true
	for i := range n.ifaces {
		n.ifaces[i].reassembly = make(map[*Packet]int32)
	}
	for _, o := range opts {
		o(n)
	}
	n.nbrOf = make([]int32, len(n.routers)*4)
	for r := range n.routers {
		for d := 0; d < 4; d++ {
			n.nbrOf[r*4+d] = -1
			if nb, _, ok := n.topo.Link(r, 1+d); ok {
				n.nbrOf[r*4+d] = int32(nb)
			}
		}
	}
	n.partition.init(len(n.routers), cfg.DisableGating)
	n.stepFn = n.shardStep
	n.rederive()
	return n, nil
}

// rederive rebuilds what is not part of the network's state;
// construction and a successful decode both end with it. The slots of
// the cycle after the clock are empty between steps; the wake schedule
// conservatively wakes every router once (its first rearm re-arms
// queued future injections).
func (n *Deflection) rederive() {
	for r := range n.routers {
		n.routers[r].slots[(n.cycle+1)&1] = [4]deflFlit{}
	}
	n.resetWake()
}

// DeflectOption configures a Deflection network.
type DeflectOption func(*Deflection)

// WithDeflectWorkers steps the deflection network's routers as
// min(w, routers) shards on as many workers; see WithWorkers.
func WithDeflectWorkers(w int) DeflectOption {
	return func(n *Deflection) { n.workers = w }
}

// Inject queues a packet's flits at the source terminal.
func (n *Deflection) Inject(p *Packet, at sim.Cycle) {
	if p.Size < 1 {
		panic(fmt.Sprintf("noc: packet with size %d", p.Size))
	}
	if p.Src < 0 || p.Src >= len(n.ifaces) || p.Dst < 0 || p.Dst >= len(n.ifaces) {
		panic(fmt.Sprintf("noc: packet endpoints %d->%d out of range", p.Src, p.Dst))
	}
	ni := &n.ifaces[p.Src]
	if n.cfg.InjectQueueCap > 0 && len(ni.queue)-ni.qHead+p.Size > n.cfg.InjectQueueCap {
		panic("noc: deflection inject queue overflow")
	}
	n.Admit(p, at)
	for s := int32(0); s < int32(p.Size); s++ {
		ni.queue = append(ni.queue, deflFlit{pkt: p, seq: s})
	}
	r, _ := n.topo.RouterOf(p.Src)
	n.wakeRouter(int32(r), at, n.cycle)
}

// Cycle reports the next cycle to simulate.
func (n *Deflection) Cycle() sim.Cycle { return n.cycle }

// Name identifies the network as a co-simulation backend: a
// cycle-level network like Network.
func (n *Deflection) Name() string { return "detailed" }

// Step simulates one cycle in one pass. A router step (eject, inject,
// assign outputs) reads only its own arrival slots of this cycle and
// writes only its neighbours' slots of the next cycle plus
// terminal-local state — each slot has a unique writer — so shards of
// routers may run it in parallel; the sender wakes each receiver
// (rearm). The exhaustive path steps every router: the reference the
// gated path is tested against.
func (n *Deflection) Step() {
	if n.exhaustive {
		for r := range n.routers {
			n.stepRouter(r)
		}
		n.stepped++
	} else {
		n.stepSharded(n.cycle, n.stepFn)
	}
	n.checkArrivals()
	n.cycle++
}

// shardStep runs one shard's cycle: drain its wake schedule and step
// each active router, each one followed at once by its own wakes.
func (n *Deflection) shardStep(si int) {
	s := &n.shards[si]
	s.active = s.gate.due(n.cycle)
	for _, r := range s.active {
		n.stepRouter(int(r))
		n.rearm(s, r)
	}
}

// rearm converts router r's sends of this cycle and its NI backlog into
// wakes, as Network.rearm does: every neighbour sent a flit runs next
// cycle (through wakeOut, so a neighbour in another shard is woken by
// the post-barrier merge), and an NI with queued flits re-arms its
// router — immediately when the head is (or next cycle becomes)
// eligible, at its creation cycle otherwise. It reads only r's own
// records and writes only the shard's schedule and outbox.
func (n *Deflection) rearm(s *shard, r32 int32) {
	now := n.cycle
	r := int(r32)
	for m := n.routers[r].sent; m != 0; m &= m - 1 {
		s.wakeOut(n.nbrOf[r*4+bits.TrailingZeros8(m)], now+1, now)
	}
	ni := &n.ifaces[n.topo.TerminalAt(r, 0)]
	if ni.qHead < len(ni.queue) {
		if at := ni.queue[ni.qHead].pkt.CreatedAt; at > now+1 {
			s.gate.wake(r32, at, now)
		} else {
			s.gate.markNext(r32)
		}
	}
}

// checkArrivals asserts, under the simcheck build tag, that the cycle
// just stepped left no arrival behind: a flit in a slot of this cycle
// reached a router nobody woke, and would sit there until a later send
// collided with it.
func (n *Deflection) checkArrivals() {
	if !sim.Checking {
		return
	}
	for r := range n.routers {
		if n.routers[r].slots[n.cycle&1] != [4]deflFlit{} {
			sim.Assert(false, "noc: deflection router %d left an arrival of cycle %d unstepped", r, n.cycle)
		}
	}
}

// NextEventCycle reports the earliest cycle at or after the current
// one at which any router must run; see Network.NextEventCycle.
func (n *Deflection) NextEventCycle() (sim.Cycle, bool) { return n.nextEvent(n.cycle) }

// AdvanceTo simulates through the end of cycle c-1, fast-forwarding
// idle spans; bit-identical to stepping every cycle.
func (n *Deflection) AdvanceTo(c sim.Cycle) { n.advanceTo(&n.cycle, c, n.Step) }

// ActivityStats reports the gating layer's work accounting.
func (n *Deflection) ActivityStats() ActivityStats { return n.activityStats(&n.packets) }

// Run simulates the given number of cycles, fast-forwarding idle
// spans.
func (n *Deflection) Run(cycles int) {
	n.AdvanceTo(n.cycle + sim.Cycle(cycles))
}

// productiveDirs appends the directions that reduce distance to dst.
func (n *Deflection) productiveDirs(router, dst int, buf []int) []int {
	dr, _ := n.topo.RouterOf(dst)
	cx, cy := n.topo.Coord(router)
	dx, dy := n.topo.Coord(dr)
	w, h := n.topo.Width(), n.topo.Height()
	if step := deflStep(cx, dx, w, n.topo.Wrap()); step > 0 {
		buf = append(buf, topology.East)
	} else if step < 0 {
		buf = append(buf, topology.West)
	}
	if step := deflStep(cy, dy, h, n.topo.Wrap()); step > 0 {
		buf = append(buf, topology.South)
	} else if step < 0 {
		buf = append(buf, topology.North)
	}
	return buf
}

func deflStep(cur, dst, size int, wrap bool) int {
	if cur == dst {
		return 0
	}
	if !wrap {
		if dst > cur {
			return 1
		}
		return -1
	}
	fwd := (dst - cur + size) % size
	if fwd <= size-fwd {
		return 1
	}
	return -1
}

// stepRouter performs one router's cycle: eject, inject, and assign
// every remaining flit an output (deflecting as needed).
func (n *Deflection) stepRouter(r int) {
	rt := &n.routers[r]
	now := n.cycle
	term := n.topo.TerminalAt(r, 0)
	ni := &n.ifaces[term]
	rt.sent = 0

	flits := rt.scratch[:0]
	in := &rt.slots[now&1]
	for d := range in {
		if in[d].pkt != nil {
			flits = append(flits, in[d]) //simlint:allow alloc refills rt.scratch, whose capacity covers links+1 flits after first use
			in[d] = deflFlit{}
		}
	}

	// Eject up to EjectWidth flits destined here, oldest first.
	sortFlits(flits)
	ejected := 0
	kept := flits[:0]
	for _, f := range flits {
		fdr, _ := n.topo.RouterOf(f.pkt.Dst)
		if fdr == r && ejected < n.cfg.EjectWidth {
			n.eject(ni, f, now)
			rt.ejects++
			ejected++
			continue
		}
		kept = append(kept, f) //simlint:allow alloc in-place filter over the scratch backing array
	}
	flits = kept

	// Inject at most one flit per cycle (the NI's bandwidth), and only
	// when a free output exists for it (#links - len(flits) > 0).
	links := n.linkCount(r)
	if len(flits) < links && ni.qHead < len(ni.queue) && ni.queue[ni.qHead].pkt.CreatedAt <= now {
		f := ni.queue[ni.qHead]
		ni.queue[ni.qHead] = deflFlit{}
		ni.qHead++
		if ni.qHead == len(ni.queue) {
			ni.queue = ni.queue[:0]
			ni.qHead = 0
		}
		f.age = now
		if f.seq == 0 {
			f.pkt.InjectedAt = now
		}
		// Same-router destination: eject immediately if width remains.
		fdr, _ := n.topo.RouterOf(f.pkt.Dst)
		if fdr == r && ejected < n.cfg.EjectWidth {
			n.eject(ni, f, now)
			rt.ejects++
			ejected++
		} else {
			flits = append(flits, f) //simlint:allow alloc bounded by links+1 entries; scratch capacity is retained below
		}
	}
	rt.scratch = flits[:0] // retain capacity

	if len(flits) == 0 {
		return
	}
	// Oldest-first port assignment.
	sortFlits(flits)
	var taken [4]bool
	var dirBuf [2]int
	for _, f := range flits {
		assigned := -1
		for _, d := range n.productiveDirs(r, f.pkt.Dst, dirBuf[:0]) {
			if n.hasLink(r, d) && !taken[d] {
				assigned = d
				break
			}
		}
		if assigned < 0 {
			for d := 0; d < 4; d++ {
				if n.hasLink(r, d) && !taken[d] {
					assigned = d
					rt.deflects++
					break
				}
			}
		}
		if assigned < 0 {
			panic(fmt.Sprintf("noc: deflection router %d cannot place flit (flits=%d links=%d)",
				r, len(flits), n.linkCount(r)))
		}
		taken[assigned] = true
		n.sendTo(int(n.nbrOf[r*4+assigned]), assigned, f)
		rt.sent |= 1 << assigned
		rt.flitHops++
	}
}

// sendTo writes a flit into the receiving router's next-cycle slot for
// the arrival direction (the opposite of the travel direction).
func (n *Deflection) sendTo(nb, travelDir int, f deflFlit) {
	slot := &n.routers[nb].slots[(n.cycle+1)&1][oppositeDir(travelDir)]
	if slot.pkt != nil {
		panic("noc: deflection arrival collision")
	}
	*slot = f
}

func oppositeDir(d int) int {
	switch d {
	case topology.East:
		return topology.West
	case topology.West:
		return topology.East
	case topology.North:
		return topology.South
	default:
		return topology.North
	}
}

func (n *Deflection) hasLink(r, dir int) bool { return n.nbrOf[r*4+dir] >= 0 }

func (n *Deflection) linkCount(r int) int {
	c := 0
	for d := 0; d < 4; d++ {
		if n.hasLink(r, d) {
			c++
		}
	}
	return c
}

// eject delivers one flit into the terminal's reassembly buffer,
// completing the packet when all flits have arrived.
func (n *Deflection) eject(ni *deflIface, f deflFlit, now sim.Cycle) {
	ni.reassembly[f.pkt]++
	f.pkt.Hops++ // count flit ejections toward a hop average
	if int(ni.reassembly[f.pkt]) == f.pkt.Size {
		delete(ni.reassembly, f.pkt)
		f.pkt.DeliveredAt = now + 1
		ni.deliveries = append(ni.deliveries, f.pkt)
	}
}

// sortFlits orders by (age, packet id, seq): oldest first. Insertion
// sort: the slice holds at most five flits (four arrivals plus one
// injection) and sort.Slice would allocate in the hot path.
func sortFlits(fs []deflFlit) {
	for i := 1; i < len(fs); i++ {
		f := fs[i]
		j := i - 1
		for j >= 0 && flitAfter(fs[j], f) {
			fs[j+1] = fs[j]
			j--
		}
		fs[j+1] = f
	}
}

// flitAfter reports whether a orders strictly after b (is younger).
func flitAfter(a, b deflFlit) bool {
	if a.age != b.age {
		return a.age > b.age
	}
	if a.pkt.ID != b.pkt.ID {
		return a.pkt.ID > b.pkt.ID
	}
	return a.seq > b.seq
}

// Drain returns packets fully reassembled at or before the current
// cycle, recording latency statistics.
func (n *Deflection) Drain() []*Packet {
	out := n.Scratch()
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		for ni.dHead < len(ni.deliveries) && ni.deliveries[ni.dHead].DeliveredAt <= n.cycle {
			out = append(out, ni.deliveries[ni.dHead])
			ni.deliveries[ni.dHead] = nil
			ni.dHead++
		}
		if ni.dHead == len(ni.deliveries) && ni.dHead > 0 {
			ni.deliveries = ni.deliveries[:0]
			ni.dHead = 0
		}
	}
	return n.Settle(out)
}

// Deflections reports non-productive port assignments so far.
func (n *Deflection) Deflections() uint64 {
	var total uint64
	for r := range n.routers {
		total += n.routers[r].deflects
	}
	return total
}

// FlitsSwitched reports total flits traversed across all router
// output ports including ejection — the same switching-activity
// measure *Network exposes, so either cycle-level network can report
// it uniformly.
func (n *Deflection) FlitsSwitched() uint64 {
	var total uint64
	for r := range n.routers {
		total += n.routers[r].flitHops + n.routers[r].ejects
	}
	return total
}

// FlitHops reports total link traversals.
func (n *Deflection) FlitHops() uint64 {
	var total uint64
	for r := range n.routers {
		total += n.routers[r].flitHops
	}
	return total
}

// DeflectionRate reports deflections per link traversal.
func (n *Deflection) DeflectionRate() float64 {
	hops := n.FlitHops()
	if hops == 0 {
		return 0
	}
	return float64(n.Deflections()) / float64(hops)
}

// Quiescent reports whether nothing is queued, in flight, or awaiting
// drain.
func (n *Deflection) Quiescent() bool {
	for r := range n.routers {
		if n.routers[r].slots[n.cycle&1] != [4]deflFlit{} {
			return false
		}
	}
	for t := range n.ifaces {
		ni := &n.ifaces[t]
		if ni.qHead < len(ni.queue) || len(ni.reassembly) > 0 || ni.dHead < len(ni.deliveries) {
			return false
		}
	}
	return true
}
