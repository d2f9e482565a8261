package fullsys

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/sim"
)

// Core execution states.
const (
	coreRunning uint8 = iota
	coreLoadWait
	coreAtomicWait
	coreBarrierWait
	coreHalted
)

// Sleep reasons: the stall counter a sleeping tile is owed one cycle of
// per tile sweep it sits out (DESIGN.md "Full-system stepping").
const (
	awake uint8 = iota
	sleepLoad
	sleepBar
	sleepSB
)

// mshrKind distinguishes outstanding miss transactions.
const (
	mshrLoad uint8 = iota
	mshrStore
	mshrAtomic
	mshrPrefetch
)

// mshrEntry tracks one outstanding L1 miss.
type mshrEntry struct {
	kind uint8
	addr uint64
	arg  uint64 // store token / atomic addend
	// inv marks a load fill that must be used once and discarded: an
	// Inv arrived while the fill was in flight (the IS_D -> IS_D_I
	// transition), so installing the data could violate coherence.
	inv bool
}

// wbEntry is an evicted line awaiting WBAck. The data stays available
// so the tile can answer forwarded requests that race with the
// writeback.
type wbEntry struct {
	value uint64
	dirty bool
}

type storeEntry struct {
	addr  uint64
	value uint64
}

// tileStats accumulates per-tile performance counters.
type tileStats struct {
	Retired   uint64
	Loads     uint64
	Stores    uint64
	Atomics   uint64
	Barriers  uint64
	LoadStall uint64 // cycles stalled on loads/atomics
	BarStall  uint64 // cycles stalled at barriers
	SBStall   uint64 // cycles stalled on a full store buffer
	Compute   uint64
	HaltedAt  sim.Cycle

	PrefIssued uint64 // prefetches sent
	PrefUseful uint64 // demand hits on prefetched lines
}

// stallCounter maps a sleep reason to the counter it charges.
func (st *tileStats) stallCounter(kind uint8) *uint64 {
	switch kind {
	case sleepLoad:
		return &st.LoadStall
	case sleepBar:
		return &st.BarStall
	default:
		return &st.SBStall
	}
}

// Tile is one node of the target machine: core + L1 on the request
// side, L2 bank + directory slice on the home side, and optionally a
// memory controller.
type Tile struct {
	id  int
	sys *System

	// Core side.
	coreState uint8
	compute   uint64 // remaining compute cycles
	curOp     Op
	opValid   bool
	storeBuf  []storeEntry
	storeTxn  bool
	l1        *l1Cache
	mshrs     map[uint64]*mshrEntry
	wbBuf     map[uint64]wbEntry
	// pendingFwd stalls forwarded requests that raced ahead of the
	// data grant making this tile the owner (virtual-network 2
	// messages can overtake virtual-network 1 in the real NoC); they
	// replay after the fill installs.
	pendingFwd  map[uint64][]Msg
	prefetchOut int
	stats       tileStats

	// A tile whose tick was a pure stall leaves System.awake until the
	// next message reaches handleL1. sleep is the counter it is owed
	// one cycle of for every sweep after sleptAt; Stats adds the debt
	// on read, wake settles it.
	sleep   uint8  //simlint:derived rebuilt by rederive: every tile restarts awake
	sleptAt uint64 //simlint:derived rebuilt by rederive: every tile restarts awake, owed nothing

	// Home (directory + L2 bank) side.
	dir       map[uint64]*dirLine
	l2        *l2Bank
	victimBuf map[uint64]*vbEntry

	// Memory controller side (nil when the tile hosts no MC).
	mem        map[uint64]uint64
	mcNextFree sim.Cycle
	// memOracle is the reciprocally coupled memory component; non-nil
	// for every MemModel except the inline "fixed" path.
	memOracle dram.Oracle
}

// vbEntry is a dirty L2 victim awaiting MemWAck; outstanding counts
// re-evictions of the same line.
type vbEntry struct {
	value       uint64
	outstanding int
}

func newTile(id int, sys *System) *Tile {
	t := &Tile{
		id:         id,
		sys:        sys,
		l1:         newL1(sys.cfg.L1Sets, sys.cfg.L1Ways),
		mshrs:      make(map[uint64]*mshrEntry),
		wbBuf:      make(map[uint64]wbEntry),
		pendingFwd: make(map[uint64][]Msg),
		dir:        make(map[uint64]*dirLine),
		l2:         newL2(sys.cfg.L2Lines),
		victimBuf:  make(map[uint64]*vbEntry),
	}
	return t
}

// Stats reports the tile's counters, including the stall cycles a
// sleeping tile has not been charged yet.
func (t *Tile) Stats() tileStats {
	st := t.stats
	if t.sleep != awake {
		*st.stallCounter(t.sleep) += t.sys.sweeps - t.sleptAt
	}
	return st
}

// tick advances the core by one cycle. A cycle that only charged a
// stall counter, with the store buffer unable to drain, repeats
// unchanged until a message reaches handleL1 — every other writer of
// the state read here is the tick itself — so the tile sleeps.
func (t *Tile) tick(now sim.Cycle) {
	if t.coreState == coreHalted {
		return
	}
	drained := t.drainStoreBuffer(now)
	if stall := t.step(now); stall != awake && !drained {
		t.sys.sleepTile(t, stall)
	}
}

// step runs the core for one cycle and reports the stall counter it
// charged when that was all it did, awake otherwise.
func (t *Tile) step(now sim.Cycle) uint8 {
	switch t.coreState {
	case coreLoadWait, coreAtomicWait:
		return t.stall(sleepLoad)
	case coreBarrierWait:
		return t.stall(sleepBar)
	}
	if t.compute > 0 {
		t.compute--
		t.stats.Compute++
		return awake
	}
	if !t.opValid {
		t.curOp = t.sys.wl.Next(t.id)
		t.opValid = true
	}
	return t.execute(now)
}

// blocked is the sleep predicate stated on its own: the stall counter
// a tick of t would charge while changing nothing else, awake if the
// tick would change state. It reads what tick reads and writes
// nothing; simcheck builds hold every sleeping tile to it each cycle.
func (t *Tile) blocked() uint8 {
	if !t.storeTxn && len(t.storeBuf) > 0 && !t.lineBusy(LineOf(t.storeBuf[0].addr)) {
		return awake // the head store can drain
	}
	switch t.coreState {
	case coreLoadWait, coreAtomicWait:
		return sleepLoad
	case coreBarrierWait:
		return sleepBar
	case coreHalted:
		return awake
	}
	if t.compute > 0 || !t.opValid {
		return awake
	}
	switch op := t.curOp; op.Kind {
	case OpLoad:
		line := LineOf(op.Addr)
		for _, se := range t.storeBuf {
			if LineOf(se.addr) == line {
				return awake // forwarded
			}
		}
		if t.lineBusy(line) {
			return sleepLoad
		}
	case OpStore:
		if len(t.storeBuf) >= t.sys.cfg.StoreBuf {
			return sleepSB
		}
	case OpAtomic:
		if !t.fenced() || t.lineBusy(LineOf(op.Addr)) {
			return sleepLoad
		}
	case OpBarrier, OpHalt:
		if !t.fenced() {
			return sleepLoad
		}
	}
	return awake
}

// lineBusy reports whether line has a miss or a writeback in flight.
func (t *Tile) lineBusy(line uint64) bool {
	if _, busy := t.mshrs[line]; busy {
		return true
	}
	_, wb := t.wbBuf[line]
	return wb
}

// stall charges one cycle to the counter kind names.
func (t *Tile) stall(kind uint8) uint8 {
	*t.stats.stallCounter(kind)++
	return kind
}

// drainStoreBuffer tries to retire the head store (at most one per
// cycle, at most one store transaction in flight) and reports whether
// it changed anything.
func (t *Tile) drainStoreBuffer(now sim.Cycle) bool {
	if t.storeTxn || len(t.storeBuf) == 0 {
		return false
	}
	head := t.storeBuf[0]
	line := LineOf(head.addr)
	if t.lineBusy(line) {
		return false
	}
	var haveLine uint64
	if w := t.l1.lookup(line); w != nil {
		switch w.state {
		case l1Modified, l1Exclusive:
			w.state = l1Modified
			w.value = head.value
			t.popStore()
			return true
		case l1Shared:
			// Pin the S copy so the upgrade can be granted without
			// data; the claim travels in the GetM.
			w.pinned = true
			haveLine = 1
		}
	}
	t.mshrs[line] = &mshrEntry{kind: mshrStore, addr: head.addr, arg: head.value}
	t.storeTxn = true
	t.sys.sendAfter(now, 0, Msg{Type: GetM, Line: line, Src: t.id, Dst: t.sys.cfg.HomeOf(line), Value: haveLine})
	return true
}

func (t *Tile) popStore() {
	copy(t.storeBuf, t.storeBuf[1:])
	t.storeBuf = t.storeBuf[:len(t.storeBuf)-1]
}

// fenced reports whether all prior stores are globally performed.
func (t *Tile) fenced() bool { return len(t.storeBuf) == 0 && !t.storeTxn }

// execute attempts the current op; ops that cannot proceed this cycle
// simply leave opValid set and retry next cycle, reporting the stall
// counter they charged (awake when the op made progress).
func (t *Tile) execute(now sim.Cycle) uint8 {
	op := t.curOp
	switch op.Kind {
	case OpCompute:
		if op.Arg > 0 {
			t.compute = op.Arg - 1
			t.stats.Compute++
		}
		t.retire()

	case OpLoad:
		line := LineOf(op.Addr)
		// Store-to-load forwarding at line-token granularity: the
		// youngest buffered store to the line wins.
		for i := len(t.storeBuf) - 1; i >= 0; i-- {
			if LineOf(t.storeBuf[i].addr) == line {
				t.observeLoad(op.Addr, t.storeBuf[i].value)
				t.retire()
				return awake
			}
		}
		if t.lineBusy(line) {
			return t.stall(sleepLoad)
		}
		if w := t.l1.lookup(line); w != nil {
			if w.prefetched {
				w.prefetched = false
				t.stats.PrefUseful++
			}
			t.observeLoad(op.Addr, w.value)
			t.compute = uint64(t.sys.cfg.L1HitLat - 1)
			t.retire()
			return awake
		}
		t.l1.misses++
		t.mshrs[line] = &mshrEntry{kind: mshrLoad, addr: op.Addr}
		t.coreState = coreLoadWait
		t.opValid = false
		t.sys.sendAfter(now, 0, Msg{Type: GetS, Line: line, Src: t.id, Dst: t.sys.cfg.HomeOf(line)})
		t.issuePrefetches(now, line)

	case OpStore:
		if len(t.storeBuf) >= t.sys.cfg.StoreBuf {
			return t.stall(sleepSB)
		}
		t.storeBuf = append(t.storeBuf, storeEntry{addr: op.Addr, value: op.Arg})
		t.stats.Stores++
		t.retire()

	case OpAtomic:
		if !t.fenced() {
			return t.stall(sleepLoad)
		}
		line := LineOf(op.Addr)
		if t.lineBusy(line) {
			return t.stall(sleepLoad)
		}
		if w := t.l1.lookup(line); w != nil && w.state >= l1Exclusive {
			w.state = l1Modified
			w.value += op.Arg
			t.sys.wl.Observe(t.id, op.Addr, w.value)
			t.compute = uint64(t.sys.cfg.L1HitLat - 1)
			t.stats.Atomics++
			t.retire()
			return awake
		}
		var haveLine uint64
		if w := t.l1.probe(line); w != nil {
			w.pinned = true
			haveLine = 1
		}
		t.l1.misses++
		t.mshrs[line] = &mshrEntry{kind: mshrAtomic, addr: op.Addr, arg: op.Arg}
		t.coreState = coreAtomicWait
		t.opValid = false
		t.sys.sendAfter(now, 0, Msg{Type: GetM, Line: line, Src: t.id, Dst: t.sys.cfg.HomeOf(line), Value: haveLine})

	case OpBarrier:
		if !t.fenced() {
			return t.stall(sleepLoad)
		}
		t.coreState = coreBarrierWait
		t.opValid = false
		t.stats.Barriers++
		t.sys.sendAfter(now, 0, Msg{Type: BarArrive, Src: t.id, Dst: t.sys.cfg.BarrierTile, Value: op.Arg})

	case OpHalt:
		if !t.fenced() {
			return t.stall(sleepLoad)
		}
		t.coreState = coreHalted
		t.stats.HaltedAt = now
		t.opValid = false
		t.sys.haltTile(t, now)

	default:
		panic(fmt.Sprintf("fullsys: unknown op kind %v", op.Kind))
	}
	return awake
}

// issuePrefetches sends next-line read requests after a demand miss,
// bounded by the outstanding-prefetch budget and skipping lines that
// are present, in flight, or being written back.
func (t *Tile) issuePrefetches(now sim.Cycle, line uint64) {
	for d := 1; d <= t.sys.cfg.PrefetchDegree; d++ {
		if t.prefetchOut >= t.sys.cfg.PrefetchMax {
			return
		}
		next := line + uint64(d)
		if t.mshrs[next] != nil {
			continue
		}
		if _, wb := t.wbBuf[next]; wb {
			continue
		}
		if t.l1.probe(next) != nil {
			continue
		}
		t.mshrs[next] = &mshrEntry{kind: mshrPrefetch, addr: next << LineShift}
		t.prefetchOut++
		t.stats.PrefIssued++
		t.sys.sendAfter(now, 0, Msg{Type: GetS, Line: next, Src: t.id, Dst: t.sys.cfg.HomeOf(next)})
	}
}

func (t *Tile) observeLoad(addr, value uint64) {
	t.l1.hits++
	t.stats.Loads++
	t.sys.wl.Observe(t.id, addr, value)
}

func (t *Tile) retire() {
	t.stats.Retired++
	t.sys.retired++
	t.opValid = false
}

// install places a filled line into the L1, evicting (and writing
// back) a victim if necessary. It panics if every way is pinned, which
// cannot happen with >= 2 ways and the two-transaction MSHR bound.
func (t *Tile) install(now sim.Cycle, line uint64, state uint8, value uint64) *l1Line {
	w := t.l1.victim(line)
	if w == nil {
		panic(fmt.Sprintf("fullsys: tile %d cannot install line %#x, all ways pinned", t.id, line))
	}
	if w.state != l1Invalid {
		t.evict(now, w)
	}
	t.l1.install(w, line, state, value)
	return w
}

// evict removes a valid line from the L1, issuing the writeback
// protocol for E/M lines. S lines drop silently.
func (t *Tile) evict(now sim.Cycle, w *l1Line) {
	switch w.state {
	case l1Modified:
		t.wbBuf[w.line] = wbEntry{value: w.value, dirty: true}
		t.sys.sendAfter(now, 0, Msg{Type: PutM, Line: w.line, Src: t.id,
			Dst: t.sys.cfg.HomeOf(w.line), Value: w.value})
	case l1Exclusive:
		t.wbBuf[w.line] = wbEntry{value: w.value, dirty: false}
		t.sys.sendAfter(now, 0, Msg{Type: PutE, Line: w.line, Src: t.id,
			Dst: t.sys.cfg.HomeOf(w.line)})
	}
	w.state = l1Invalid
}

// handleL1 processes messages addressed to the tile's request side. It
// is the only writer of core, L1, MSHR, writeback and store-buffer
// state besides the tile's own tick, so it is the one wake site.
func (t *Tile) handleL1(now sim.Cycle, m Msg) {
	t.sys.wakeTile(t)
	switch m.Type {
	case DataS, DataE, DataM, GrantM:
		t.completeMiss(now, m)

	case FwdGetS:
		if t.stallFwd(m) {
			return
		}
		if w := t.l1.probe(m.Line); w != nil && w.state >= l1Exclusive {
			w.state = l1Shared
			t.sys.sendAfter(now, 0, Msg{Type: DataWB, Line: m.Line, Src: t.id, Dst: m.Src, Value: w.value})
			return
		}
		if wb, ok := t.wbBuf[m.Line]; ok {
			t.sys.sendAfter(now, 0, Msg{Type: DataWB, Line: m.Line, Src: t.id, Dst: m.Src, Value: wb.value})
			return
		}
		panic(fmt.Sprintf("fullsys: tile %d got %v without owning the line", t.id, m))

	case FwdGetM:
		if t.stallFwd(m) {
			return
		}
		req := int(m.Value)
		if w := t.l1.probe(m.Line); w != nil && w.state >= l1Exclusive {
			value := w.value
			w.state = l1Invalid
			t.sys.sendAfter(now, 0, Msg{Type: DataM, Line: m.Line, Src: t.id, Dst: req, Value: value})
			t.sys.sendAfter(now, 0, Msg{Type: FwdAck, Line: m.Line, Src: t.id, Dst: m.Src, Value: uint64(req)})
			return
		}
		if wb, ok := t.wbBuf[m.Line]; ok {
			t.sys.sendAfter(now, 0, Msg{Type: DataM, Line: m.Line, Src: t.id, Dst: req, Value: wb.value})
			t.sys.sendAfter(now, 0, Msg{Type: FwdAck, Line: m.Line, Src: t.id, Dst: m.Src, Value: uint64(req)})
			return
		}
		panic(fmt.Sprintf("fullsys: tile %d got %v without owning the line", t.id, m))

	case Inv:
		if w := t.l1.probe(m.Line); w != nil {
			if w.state >= l1Exclusive {
				panic(fmt.Sprintf("fullsys: tile %d got Inv while holding line %#x in %s",
					t.id, m.Line, l1StateName(w.state)))
			}
			w.state = l1Invalid
			w.pinned = false
		} else if e := t.mshrs[m.Line]; e != nil && (e.kind == mshrLoad || e.kind == mshrPrefetch) {
			// The Inv may belong to a write serialized after our GetS
			// but whose invalidation overtook our DataS; the incoming
			// fill must be used once (demand load) or dropped entirely
			// (prefetch) and never installed.
			e.inv = true
		}
		t.sys.sendAfter(now, 0, Msg{Type: InvAck, Line: m.Line, Src: t.id, Dst: m.Src})

	case WBAck:
		delete(t.wbBuf, m.Line)

	case BarRelease:
		if t.coreState == coreBarrierWait {
			t.coreState = coreRunning
			t.retire()
		}

	default:
		panic(fmt.Sprintf("fullsys: tile %d request side got unexpected %v", t.id, m))
	}
}

// completeMiss finishes the MSHR transaction the response belongs to.
func (t *Tile) completeMiss(now sim.Cycle, m Msg) {
	e := t.mshrs[m.Line]
	if e == nil {
		panic(fmt.Sprintf("fullsys: tile %d got %v with no MSHR", t.id, m))
	}
	delete(t.mshrs, m.Line)
	switch e.kind {
	case mshrPrefetch:
		t.prefetchOut--
		if e.inv {
			// An invalidation raced the prefetch fill: drop it.
			return
		}
		state := l1Shared
		if m.Type == DataE {
			state = l1Exclusive
		}
		w := t.install(now, m.Line, state, m.Value)
		w.prefetched = true
		t.replayFwds(now, m.Line)

	case mshrLoad:
		if e.inv {
			if m.Type != DataS {
				panic(fmt.Sprintf("fullsys: tile %d invalidated-in-flight fill with %v", t.id, m))
			}
			if len(t.pendingFwd[m.Line]) > 0 {
				panic(fmt.Sprintf("fullsys: tile %d has stalled forwards for discarded fill %#x", t.id, m.Line))
			}
			// Use the fill once (the load reads the pre-invalidation
			// value, which our GetS serialized before the writer) and
			// discard it.
			t.stats.Loads++
			t.retire()
			t.sys.wl.Observe(t.id, e.addr, m.Value)
			t.coreState = coreRunning
			return
		}
		state := l1Shared
		if m.Type == DataE {
			state = l1Exclusive
		}
		t.install(now, m.Line, state, m.Value)
		t.stats.Loads++
		t.retire()
		t.sys.wl.Observe(t.id, e.addr, m.Value)
		t.coreState = coreRunning
		t.replayFwds(now, m.Line)

	case mshrStore:
		if m.Type == GrantM {
			w := t.l1.probe(m.Line)
			if w == nil {
				panic(fmt.Sprintf("fullsys: tile %d GrantM for absent line %#x", t.id, m.Line))
			}
			w.state = l1Modified
			w.pinned = false
			w.value = e.arg
		} else {
			t.install(now, m.Line, l1Modified, e.arg)
		}
		t.storeTxn = false
		t.popStore()
		t.replayFwds(now, m.Line)

	case mshrAtomic:
		var w *l1Line
		if m.Type == GrantM {
			w = t.l1.probe(m.Line)
			if w == nil {
				panic(fmt.Sprintf("fullsys: tile %d GrantM for absent line %#x", t.id, m.Line))
			}
			w.state = l1Modified
			w.pinned = false
		} else {
			w = t.install(now, m.Line, l1Modified, m.Value)
		}
		w.value += e.arg
		t.sys.wl.Observe(t.id, e.addr, w.value)
		t.stats.Atomics++
		t.retire()
		t.coreState = coreRunning
		t.replayFwds(now, m.Line)
	}
}

// stallFwd queues a forwarded request that arrived before the data
// grant that makes this tile the owner; it replays after the fill.
func (t *Tile) stallFwd(m Msg) bool {
	if t.mshrs[m.Line] == nil {
		return false
	}
	t.pendingFwd[m.Line] = append(t.pendingFwd[m.Line], m)
	return true
}

// replayFwds re-dispatches forwards stalled on the just-filled line.
func (t *Tile) replayFwds(now sim.Cycle, line uint64) {
	fwds := t.pendingFwd[line]
	if len(fwds) == 0 {
		return
	}
	delete(t.pendingFwd, line)
	for _, m := range fwds {
		t.handleL1(now, m)
	}
}
