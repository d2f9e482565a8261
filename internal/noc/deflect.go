package noc

import (
	"fmt"
	"slices"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/stats"
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

	cycle     sim.Cycle
	tracker   *stats.LatencyTracker
	injected  uint64
	delivered uint64
	nextID    uint64
	drainBuf  []*Packet //simlint:derived drain scratch, emptied by rederive

	// The step path (shard.go; see Network's fields) and the packet
	// free list. All derived or host-side state, excluded from snapshots.
	partition             //simlint:derived recomputed at construction; wake schedules rebuilt by rederive, counters restart at zero
	stepFn    func(i int) //simlint:derived shardStep, bound once at construction
	swapFn    func(i int) //simlint:derived shardSwap, bound once at construction
	pool      PacketPool  //simlint:derived host-side free list, never simulated state
	// nbrOf[r*4+d] is the router across direction d (-1 when the edge
	// port has no link); the swap pass walks it every stepped cycle.
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

// deflRouter holds the per-router link-slot state: in[dir] is the flit
// arriving this cycle (written by the upstream neighbour last cycle
// via double buffering).
type deflRouter struct {
	in   [4]deflFlit // current-cycle arrivals, indexed by direction
	next [4]deflFlit //simlint:derived next-cycle arrivals staged by neighbours; empty between steps, cleared by rederive

	scratch []deflFlit //simlint:derived assignment working set, rebuilt by every router step before it is read

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
		tracker: stats.NewLatencyTracker(4, 512),
	}
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
	// Each shard's boundary routers and neighbouring shards, for the
	// cross-shard arrival scan in shardSwap.
	for si := range n.shards {
		s := &n.shards[si]
		isNbr := make([]bool, len(n.shards))
		for r := s.lo; r < s.hi; r++ {
			cross := false
			for d := int32(0); d < 4; d++ {
				if nb := n.nbrOf[r*4+d]; nb >= 0 && (nb < s.lo || nb >= s.hi) {
					cross = true
					isNbr[n.shardOf[nb]] = true
				}
			}
			if cross {
				s.boundary = append(s.boundary, r)
			}
		}
		for t, is := range isNbr {
			if is {
				s.nbrShards = append(s.nbrShards, int32(t))
			}
		}
	}
	n.stepFn = n.shardStep
	n.swapFn = n.shardSwap
	n.rederive()
	return n, nil
}

// rederive rebuilds what is not part of the network's state;
// construction and a successful decode both end with it. The staging
// slots are empty between steps and the drain scratch is emptied; the
// wake schedule conservatively wakes every router once (the first wake
// pass re-arms queued future injections).
func (n *Deflection) rederive() {
	for r := range n.routers {
		n.routers[r].next = [4]deflFlit{}
	}
	n.drainBuf = n.drainBuf[:0]
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
	p.ID = n.nextID
	n.nextID++
	p.CreatedAt = at
	for s := int32(0); s < int32(p.Size); s++ {
		ni.queue = append(ni.queue, deflFlit{pkt: p, seq: s})
	}
	n.injected++
	r, _ := n.topo.RouterOf(p.Src)
	n.wakeRouter(int32(r), at, n.cycle)
}

// NewPacket returns a zeroed packet, recycled when possible (see
// Network.NewPacket).
func (n *Deflection) NewPacket() *Packet { return n.pool.Get() }

// Recycle returns a drained packet to the free list (see
// Network.Recycle).
func (n *Deflection) Recycle(p *Packet) { n.pool.Put(p) }

// Cycle reports the next cycle to simulate.
func (n *Deflection) Cycle() sim.Cycle { return n.cycle }

// Step simulates one cycle in two passes with a barrier between them.
// The router pass (eject, inject, assign outputs) reads only the
// router's own arrival slots and writes only its neighbours' staging
// slots plus terminal-local state — each staging slot has a unique
// writer — so shards of routers may run it in parallel; the swap pass
// then promotes staged flits. The exhaustive path runs both passes
// over every router: the reference the gated path is tested against.
func (n *Deflection) Step() {
	if n.exhaustive {
		for r := range n.routers {
			n.stepRouter(r)
		}
		for r := range n.routers {
			n.swapRouter(r)
		}
		n.stepped++
	} else {
		n.stepSharded(n.cycle, n.stepFn, n.swapFn)
	}
	n.cycle++
}

// shardStep runs one shard's router pass: drain the shard's wake
// schedule and step each active router, staging sends into neighbours'
// next-cycle slots (which may belong to other shards).
func (n *Deflection) shardStep(si int) {
	s := &n.shards[si]
	s.active = s.gate.due(n.cycle)
	for _, r := range s.active {
		n.stepRouter(int(r))
	}
}

// shardSwap runs one shard's swap pass — the deflection wake pass. A
// staged arrival can exist only at an active router or one of its
// neighbours; swap exactly this shard's routers that hold one (once
// each — a second swap would wipe the promoted arrivals), then re-arm
// wakes for next-cycle work. Staged arrivals at an own router were
// written either by an own active router (covered by the in-range
// neighbour scan) or by an active router in a neighbouring shard
// (covered by the boundary list, scanned only when such a shard was
// active — reading a peer's active length here is safe: it was
// published before the inter-pass barrier). Every wake targets the
// shard's own schedule, so this pass never uses the outbox.
func (n *Deflection) shardSwap(si int) {
	s := &n.shards[si]
	now := n.cycle
	cand := s.swapBuf[:0]
	for _, r32 := range s.active {
		r := int(r32)
		cand = append(cand, r32) //simlint:allow alloc swapBuf capacity is retained across cycles; steady state appends in place
		for d := 0; d < 4; d++ {
			if nb := n.nbrOf[r*4+d]; nb >= s.lo && nb < s.hi {
				cand = append(cand, nb) //simlint:allow alloc swapBuf capacity is retained across cycles; steady state appends in place
			}
		}
	}
	for _, as := range s.nbrShards {
		if len(n.shards[as].active) > 0 {
			cand = append(cand, s.boundary...) //simlint:allow alloc swapBuf capacity is retained across cycles; steady state appends in place
			break
		}
	}
	slices.Sort(cand)
	out := cand[:0]
	prev := int32(-1)
	for _, c := range cand {
		if c == prev {
			continue
		}
		prev = c
		rt := &n.routers[c]
		if rt.next[0].pkt != nil || rt.next[1].pkt != nil ||
			rt.next[2].pkt != nil || rt.next[3].pkt != nil {
			out = append(out, c) //simlint:allow alloc in-place filter of cand; never exceeds swapBuf's retained capacity
		}
	}
	s.swapBuf = out
	// A router that just received arrivals must run next cycle.
	for _, r32 := range out {
		rt := &n.routers[r32]
		for d := 0; d < 4; d++ {
			if rt.next[d].pkt != nil {
				if nb := n.nbrOf[int(r32)*4+d]; nb >= 0 && (nb < s.lo || nb >= s.hi) {
					s.boundaryWakes++
				}
			}
		}
		n.swapRouter(int(r32))
		s.gate.markNext(r32)
	}
	// An NI with queued flits re-arms its router: immediately when the
	// head is (or next cycle becomes) eligible, at its creation cycle
	// otherwise.
	for _, r32 := range s.active {
		ni := &n.ifaces[n.topo.TerminalAt(int(r32), 0)]
		if ni.qHead < len(ni.queue) {
			if at := ni.queue[ni.qHead].pkt.CreatedAt; at > now+1 {
				s.gate.wake(r32, at, now)
			} else {
				s.gate.markNext(r32)
			}
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
func (n *Deflection) ActivityStats() ActivityStats { return n.activityStats(&n.pool) }

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

	flits := rt.scratch[:0]
	for d := 0; d < 4; d++ {
		if rt.in[d].pkt != nil {
			flits = append(flits, rt.in[d]) //simlint:allow alloc refills rt.scratch, whose capacity covers links+1 flits after first use
			rt.in[d] = deflFlit{}
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
		nb, _, _ := n.topo.Link(r, 1+assigned)
		n.sendTo(nb, assigned, f)
		rt.flitHops++
	}
}

// sendTo stages a flit into the receiving router's next-cycle slot for
// the arrival direction (the opposite of the travel direction).
func (n *Deflection) sendTo(nb, travelDir int, f deflFlit) {
	arriveDir := oppositeDir(travelDir)
	slot := &n.routers[nb].next[arriveDir]
	if slot.pkt != nil {
		panic("noc: deflection staging collision")
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

// swapRouter promotes staged arrivals for the next cycle.
func (n *Deflection) swapRouter(r int) {
	rt := &n.routers[r]
	rt.in, rt.next = rt.next, [4]deflFlit{}
}

func (n *Deflection) hasLink(r, dir int) bool {
	_, _, ok := n.topo.Link(r, 1+dir)
	return ok
}

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
	out := n.drainBuf[:0]
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
	for _, p := range out {
		hops := p.Hops / p.Size // average router visits per flit
		n.tracker.Record(p.Class, float64(p.QueueingLatency()), float64(p.NetworkLatency()), hops)
	}
	n.delivered += uint64(len(out))
	n.drainBuf = out
	return out
}

// Tracker reports latency statistics of drained packets.
func (n *Deflection) Tracker() *stats.LatencyTracker { return n.tracker }

// Injected reports accepted packets.
func (n *Deflection) Injected() uint64 { return n.injected }

// Delivered reports drained packets.
func (n *Deflection) Delivered() uint64 { return n.delivered }

// InFlight reports packets injected but not drained.
func (n *Deflection) InFlight() int { return int(n.injected - n.delivered) }

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
// it uniformly through core.CycleNet.
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
		for d := 0; d < 4; d++ {
			if n.routers[r].in[d].pkt != nil || n.routers[r].next[d].pkt != nil {
				return false
			}
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
