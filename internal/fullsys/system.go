package fullsys

import (
	"fmt"
	"math/bits"
	"sort"

	"repro/internal/dram"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Sender carries a message into the (possibly abstracted) network at
// the given cycle. The co-simulation layer supplies it.
type Sender func(m Msg, at sim.Cycle)

// System is the coarse-grain full-system simulator: a set of tiles
// plus the barrier coordinator and the message plumbing between tiles
// and the network. Tick must be called for every target cycle in
// order; Deliver hands network deliveries back.
type System struct {
	cfg  Config //simlint:derived construction input; restore validates geometry against it
	wl   Workload
	send Sender //simlint:derived wiring installed at construction, carries no state

	tiles   []*Tile
	events  sim.TypedQueue[sysEvent]
	now     sim.Cycle
	barrier map[uint64]int
	mcList  []int        //simlint:derived recomputed from cfg.MemControllers at construction
	mcIndex map[int]bool //simlint:derived recomputed from cfg.MemControllers at construction

	// memClaimed marks that a co-simulation coordinator owns
	// memory-oracle advancement (see ClaimMemory). Until then the
	// system self-advances its oracles every Tick, so a standalone
	// System works without a coordinator. It records which driver is
	// attached, not simulated state: a restored system is re-claimed by
	// whatever coordinator performs the restore.
	memClaimed bool //simlint:derived re-established by the restoring coordinator, not simulated state

	msgsSent   uint64
	flitsSent  uint64
	localMsgs  uint64
	msgsByType [numMsgTypes]uint64

	// Activity gating (DESIGN.md "Full-system stepping"). Tick sweeps
	// only the tiles whose bit is set in awake; sweeps counts the
	// sweeps made, which is what a sleeping tile's stall debt is
	// measured against. halted, retired and finish are the running
	// forms of Done, Retired and FinishCycle, kept at the halt and
	// retire sites.
	awake   []uint64  //simlint:derived rebuilt by rederive from tile state
	sweeps  uint64    //simlint:derived only differences against Tile.sleptAt matter, and rederive restarts every tile awake
	halted  int       //simlint:derived rebuilt by rederive from tile state
	retired uint64    //simlint:derived rebuilt by rederive from tile state
	finish  sim.Cycle //simlint:derived rebuilt by rederive from tile state
	// exhaustive makes Tick sweep every tile and never put one to
	// sleep: the reference the gated sweep is tested against. Set by
	// in-package tests only.
	exhaustive bool //simlint:derived test-only reference switch, not simulated state

	// Observability handles (observe.go). nil handles are no-ops, so
	// the counting sites below stay unconditional; nothing here feeds
	// simulated state.
	obsClampMem *obs.Counter //simlint:derived observer handle, re-resolved per run; never simulated state
	obsClampNet *obs.Counter //simlint:derived observer handle, re-resolved per run; never simulated state
}

// New constructs a system over the given workload. send receives every
// tile-to-tile message that must traverse the network (same-tile
// messages are short-circuited internally with Config.LocalLat).
func New(cfg Config, wl Workload, send Sender) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &System{
		cfg:     cfg,
		wl:      wl,
		send:    send,
		barrier: make(map[uint64]int),
		mcList:  cfg.controllers(),
		mcIndex: make(map[int]bool),
	}
	s.tiles = make([]*Tile, cfg.Tiles)
	for i := range s.tiles {
		s.tiles[i] = newTile(i, s)
	}
	for _, mc := range s.mcList {
		s.tiles[mc].mem = make(map[uint64]uint64)
		s.mcIndex[mc] = true
		oracle, err := newMemOracle(cfg)
		if err != nil {
			return nil, err
		}
		s.tiles[mc].memOracle = oracle
	}
	s.awake = make([]uint64, (cfg.Tiles+63)/64)
	s.rederive()
	return s, nil
}

// rederive rebuilds the gating state from the tiles after their state
// was replaced wholesale (construction, restore): every
// running tile is awake and owed nothing, and the running totals are
// recounted.
func (s *System) rederive() {
	clear(s.awake)
	s.halted, s.retired, s.finish = 0, 0, 0
	for i, t := range s.tiles {
		t.sleep = awake
		s.retired += t.stats.Retired
		if t.stats.HaltedAt > s.finish {
			s.finish = t.stats.HaltedAt
		}
		if t.coreState == coreHalted {
			s.halted++
		} else {
			s.awake[i>>6] |= 1 << (i & 63)
		}
	}
}

// sleepTile takes t out of the sweep after a tick that only charged
// the stall counter kind names.
func (s *System) sleepTile(t *Tile, kind uint8) {
	if s.exhaustive {
		return
	}
	t.sleep, t.sleptAt = kind, s.sweeps
	s.awake[t.id>>6] &^= 1 << (t.id & 63)
}

// wakeTile charges a sleeping tile the stall cycles it sat out and
// returns it to the sweep. Messages fire between sweeps, so the tile
// ticks in the very sweep it would have in an exhaustive one.
func (s *System) wakeTile(t *Tile) {
	if t.sleep == awake {
		return
	}
	*t.stats.stallCounter(t.sleep) += s.sweeps - t.sleptAt
	t.sleep = awake
	s.awake[t.id>>6] |= 1 << (t.id & 63)
}

// checkSleepers re-derives, under the simcheck build tag, why every
// tile outside the sweep is outside it: a wake source that bypassed
// handleL1 would otherwise go on charging a stall the tile has left.
// The comparisons guard the Assert calls so that a passing check boxes
// no arguments.
func (s *System) checkSleepers() {
	for i, t := range s.tiles {
		inSweep := s.awake[i>>6]>>(i&63)&1 != 0
		switch {
		case inSweep:
			if t.sleep != awake || t.coreState == coreHalted {
				sim.Assert(false, "fullsys: tile %d is swept with sleep reason %d, core state %d", i, t.sleep, t.coreState)
			}
		case t.coreState == coreHalted:
			if t.sleep != awake || !t.fenced() {
				sim.Assert(false, "fullsys: tile %d halted with sleep reason %d, %d buffered stores", i, t.sleep, len(t.storeBuf))
			}
		default:
			if want := t.blocked(); want == awake || want != t.sleep {
				sim.Assert(false, "fullsys: tile %d sleeps for reason %d, its state stalls for reason %d (0: none)", i, t.sleep, want)
			}
		}
	}
}

// haltTile records a core's halt: it leaves the sweep for good.
func (s *System) haltTile(t *Tile, now sim.Cycle) {
	s.halted++
	if now > s.finish {
		s.finish = now
	}
	s.awake[t.id>>6] &^= 1 << (t.id & 63)
}

// newMemOracle builds one memory controller's oracle for the
// configured fidelity; nil selects the inline fixed path.
func newMemOracle(cfg Config) (dram.Oracle, error) {
	switch cfg.MemModel {
	case "", "fixed":
		return nil, nil
	case "ddr":
		return dram.NewDetailedOracle(cfg.DRAM)
	case "abstract":
		return dram.NewAbstractOracle(cfg.MemLat, cfg.MCOccupancy, cfg.MemTuneWindow)
	case "calibrated":
		return dram.NewCalibratedOracle(cfg.DRAM, cfg.MemLat, cfg.MCOccupancy,
			cfg.MemTuneWindow, sim.Cycle(cfg.MemRetune))
	default:
		return nil, fmt.Errorf("fullsys: unknown memory model %q", cfg.MemModel)
	}
}

// Cfg reports the system configuration.
func (s *System) Cfg() Config { return s.cfg }

// Workload reports the workload the system was built over.
func (s *System) Workload() Workload { return s.wl }

// SetSender replaces the send callback. A restore that can rewind
// simulated time installs a fresh one, because the simcheck
// inject-order history lives inside the closure and must restart with
// the restored clock.
func (s *System) SetSender(send Sender) { s.send = send }

// Tile exposes a tile for inspection (tests, invariant checkers).
func (s *System) Tile(i int) *Tile { return s.tiles[i] }

// mcOf maps a line to its memory controller tile.
func (s *System) mcOf(line uint64) int {
	return s.mcList[int(line%uint64(len(s.mcList)))]
}

// Tick advances the system by one cycle. The cycle argument must
// increase by exactly one per call.
func (s *System) Tick(now sim.Cycle) {
	if now < s.now {
		panic(fmt.Sprintf("fullsys: Tick(%v) after %v", now, s.now))
	}
	s.now = now
	for {
		d, ok := s.events.PopUntil(now)
		if !ok {
			break
		}
		s.fire(d.When, d.Item)
	}
	if !s.memClaimed {
		// Standalone operation: advance each memory oracle through
		// this cycle and turn its completions into events, exactly
		// where the per-cycle controller tick used to run. Under a
		// coordinator (ClaimMemory) the oracles advance a quantum at
		// a time instead.
		for _, mc := range s.mcList {
			o := s.tiles[mc].memOracle
			if o == nil {
				continue
			}
			o.AdvanceTo(now + 1)
			for _, c := range o.Drain() {
				s.CompleteMem(c.Meta, c.At)
			}
		}
	}
	s.sweeps++
	if s.exhaustive {
		for _, t := range s.tiles {
			t.tick(now)
		}
		return
	}
	if sim.Checking {
		s.checkSleepers()
	}
	// Ascending tile order, as the exhaustive sweep: the backends see
	// the same injection order. A tick clears only its own tile's bit,
	// and nothing sets one mid-sweep, so iterating a copy of each word
	// is exact.
	for wi, word := range s.awake {
		for ; word != 0; word &= word - 1 {
			s.tiles[wi<<6|bits.TrailingZeros64(word)].tick(now)
		}
	}
}

// MemPort is one memory controller exposed as a co-simulation
// component: the hosting tile and its oracle.
type MemPort struct {
	Tile   int
	Oracle dram.Oracle
}

// ClaimMemory transfers ownership of memory-oracle advancement to a
// co-simulation coordinator: after this call, Tick no longer advances
// the oracles, and the coordinator must AdvanceTo each quantum
// boundary and hand drained completions back through CompleteMem. The
// ports are returned in deterministic controller order. It returns nil
// under the inline fixed model; claiming twice panics.
func (s *System) ClaimMemory() []MemPort {
	if s.memClaimed {
		panic("fullsys: memory oracles already claimed by a coordinator")
	}
	s.memClaimed = true
	var ports []MemPort
	for _, mc := range s.mcList {
		if o := s.tiles[mc].memOracle; o != nil {
			ports = append(ports, MemPort{Tile: mc, Oracle: o})
		}
	}
	return ports
}

// CompleteMem applies one drained memory completion: the data access
// and the response message fire at the completion cycle when it is
// still in the future, and are clamped to the current cycle otherwise
// — the same bounded skew Deliver applies to network deliveries that
// complete inside an already simulated quantum.
func (s *System) CompleteMem(meta interface{}, at sim.Cycle) {
	m, ok := meta.(Msg)
	if !ok {
		panic(fmt.Sprintf("fullsys: memory completion carries %T, want Msg", meta))
	}
	if at <= s.now {
		if at < s.now {
			s.obsClampMem.Inc()
		}
		s.dramDone(s.now, m)
		return
	}
	s.events.Schedule(at, sysEvent{kind: evDramDone, msg: m})
}

// Deliver hands a network-delivered message to its destination tile.
// Call between Ticks, after the network has simulated the delivery
// cycle.
func (s *System) Deliver(m Msg, at sim.Cycle) {
	if at < s.now {
		s.obsClampNet.Inc()
		at = s.now
	}
	s.dispatch(at, m)
}

// dispatch routes a message to the right functional unit of its
// destination tile.
func (s *System) dispatch(now sim.Cycle, m Msg) {
	t := s.tiles[m.Dst]
	switch m.Type {
	case GetS, GetM, PutM, PutE, DataWB, InvAck, FwdAck, MemData, MemWAck:
		t.handleHome(now, m)
	case MemRead, MemWrite:
		t.handleMC(now, m)
	case BarArrive:
		s.barrierArrive(now, m)
	default:
		t.handleL1(now, m)
	}
}

// barrierArrive counts arrivals and releases everyone when the last
// core arrives.
func (s *System) barrierArrive(now sim.Cycle, m Msg) {
	id := m.Value
	s.barrier[id]++
	if s.barrier[id] < s.cfg.Tiles {
		return
	}
	delete(s.barrier, id)
	for t := 0; t < s.cfg.Tiles; t++ {
		s.sendAfter(now, 0, Msg{Type: BarRelease, Src: s.cfg.BarrierTile, Dst: t, Value: id})
	}
}

// sendAfter emits a message after a service delay. Same-tile messages
// short-circuit the network with the local-bank latency.
func (s *System) sendAfter(now sim.Cycle, delay int, m Msg) {
	if m.Src == m.Dst {
		s.localMsgs++
		at := now + sim.Cycle(delay+s.cfg.LocalLat)
		s.events.Schedule(at, sysEvent{kind: evDispatch, msg: m})
		return
	}
	s.msgsSent++
	s.flitsSent += uint64(m.Flits())
	s.msgsByType[m.Type]++
	if delay == 0 {
		s.send(m, now)
		return
	}
	at := now + sim.Cycle(delay)
	s.events.Schedule(at, sysEvent{kind: evSend, msg: m})
}

// Done reports whether every core has halted.
func (s *System) Done() bool { return s.halted == len(s.tiles) }

// FinishCycle reports the cycle at which the last core halted (valid
// once Done).
func (s *System) FinishCycle() sim.Cycle { return s.finish }

// Retired reports total retired operations across cores.
func (s *System) Retired() uint64 { return s.retired }

// MsgsSent reports network messages emitted (excluding same-tile).
func (s *System) MsgsSent() uint64 { return s.msgsSent }

// FlitsSent reports network flits emitted.
func (s *System) FlitsSent() uint64 { return s.flitsSent }

// LocalMsgs reports messages short-circuited to the local bank.
func (s *System) LocalMsgs() uint64 { return s.localMsgs }

// MemOracles lists the memory oracles in deterministic controller
// order; empty under the inline fixed model. Available whether or not
// a coordinator has claimed them.
func (s *System) MemOracles() []dram.Oracle {
	var out []dram.Oracle
	for _, mc := range s.mcList {
		if o := s.tiles[mc].memOracle; o != nil {
			out = append(out, o)
		}
	}
	return out
}

// DRAMStats aggregates memory-controller statistics across oracles;
// the zero value is returned under the fixed model.
func (s *System) DRAMStats() dram.Stats {
	var agg dram.Stats
	n := 0
	var latSum, qSum float64
	for _, mc := range s.mcList {
		o := s.tiles[mc].memOracle
		if o == nil {
			continue
		}
		st := o.Stats()
		agg.Reads += st.Reads
		agg.Writes += st.Writes
		agg.RowHits += st.RowHits
		agg.RowMisses += st.RowMisses
		agg.RowConflicts += st.RowConflicts
		latSum += st.AvgLatency
		qSum += st.AvgQueueDepth
		n++
	}
	if n > 0 {
		agg.AvgLatency = latSum / float64(n)
		agg.AvgQueueDepth = qSum / float64(n)
	}
	return agg
}

// MsgsByType reports network messages sent per protocol message type.
func (s *System) MsgsByType() map[MsgType]uint64 {
	out := make(map[MsgType]uint64)
	for t, c := range s.msgsByType {
		if c > 0 {
			out[MsgType(t)] = c
		}
	}
	return out
}

// L1Stats aggregates L1 hits and misses across tiles.
func (s *System) L1Stats() (hits, misses uint64) {
	for _, t := range s.tiles {
		hits += t.l1.hits
		misses += t.l1.misses
	}
	return hits, misses
}

// CheckCoherence verifies the single-writer/multiple-reader invariant
// across all L1s and the directory's consistency with them. Tests call
// it between cycles; it reports the first violation found.
func (s *System) CheckCoherence() error {
	type holder struct {
		tile  int
		state uint8
	}
	lines := make(map[uint64][]holder)
	for _, t := range s.tiles {
		for _, set := range t.l1.sets {
			for i := range set {
				w := &set[i]
				if w.state != l1Invalid {
					lines[w.line] = append(lines[w.line], holder{t.id, w.state})
				}
			}
		}
	}
	// Check lines in sorted order so the reported first violation is
	// the same on every run.
	sorted := make([]uint64, 0, len(lines))
	//simlint:allow maprange keys collected here are sorted before use
	for line := range lines {
		sorted = append(sorted, line)
	}
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for _, line := range sorted {
		hs := lines[line]
		writers := 0
		for _, h := range hs {
			if h.state >= l1Exclusive {
				writers++
			}
		}
		if writers > 1 || (writers == 1 && len(hs) > 1) {
			return fmt.Errorf("fullsys: SWMR violated for line %#x: %d holders, %d exclusive",
				line, len(hs), writers)
		}
	}
	return nil
}

// StatsTable summarizes system-level execution statistics.
func (s *System) StatsTable(title string) *stats.Table {
	t := stats.NewTable(title,
		"metric", "value")
	var retired, loads, stores, atomics, loadStall, barStall, sbStall, compute uint64
	var prefIss, prefUse uint64
	for _, tile := range s.tiles {
		st := tile.Stats()
		retired += st.Retired
		loads += st.Loads
		stores += st.Stores
		atomics += st.Atomics
		loadStall += st.LoadStall
		barStall += st.BarStall
		sbStall += st.SBStall
		compute += st.Compute
		prefIss += st.PrefIssued
		prefUse += st.PrefUseful
	}
	hits, misses := s.L1Stats()
	t.AddRow("retired ops", retired)
	t.AddRow("loads / stores / atomics", fmt.Sprintf("%d / %d / %d", loads, stores, atomics))
	if hits+misses > 0 {
		t.AddRow("L1 miss rate %", float64(misses)/float64(hits+misses)*100)
	}
	t.AddRow("cycles: compute / load-stall / barrier / sb-stall",
		fmt.Sprintf("%d / %d / %d / %d", compute, loadStall, barStall, sbStall))
	t.AddRow("network messages (flits)", fmt.Sprintf("%d (%d)", s.msgsSent, s.flitsSent))
	var reqs, resps, fwds uint64
	for typ, c := range s.msgsByType { // fixed-size array: deterministic order
		switch MsgType(typ).VNet() {
		case 0:
			reqs += c
		case 1:
			resps += c
		default:
			fwds += c
		}
	}
	t.AddRow("messages req / resp / fwd", fmt.Sprintf("%d / %d / %d", reqs, resps, fwds))
	t.AddRow("local-bank messages", s.localMsgs)
	if prefIss > 0 {
		t.AddRow("prefetches issued (useful)", fmt.Sprintf("%d (%d)", prefIss, prefUse))
	}
	if d := s.DRAMStats(); d.Reads+d.Writes > 0 {
		t.AddRow("dram reads/writes, row-hit %",
			fmt.Sprintf("%d/%d, %.1f%%", d.Reads, d.Writes, d.RowHitRate()*100))
	}
	return t
}
