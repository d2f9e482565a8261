package fullsys

import (
	"fmt"
	"slices"

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

// mshrEntry tracks one outstanding L1 miss, on line.
type mshrEntry struct {
	line uint64
	addr uint64
	arg  uint64 // store token / atomic addend
	kind uint8
	// inv marks a load fill that must be used once and discarded: an
	// Inv arrived while the fill was in flight (the IS_D -> IS_D_I
	// transition), so installing the data could violate coherence.
	inv bool
}

// wbEntry is an evicted line awaiting WBAck. The data stays available
// so the tile can answer forwarded requests that race with the
// writeback.
type wbEntry struct {
	line  uint64
	value uint64
	dirty bool
}

// fwdEntry is a forwarded request stalled on line (see
// Tile.pendingFwd). An entry whose message type is noFwd holds no
// request: a checkpoint may list a line with no stalled forwards, and
// the line stays listed, as the map this buffer replaced kept it, until
// a forward stalls on it.
type fwdEntry struct {
	line uint64
	msg  Msg
}

// noFwd is the message type of an fwdEntry that holds no request.
const noFwd = numMsgTypes

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
	l1        l1Cache
	// The miss-side buffers hold a handful of entries each, by value,
	// and are searched by line.
	mshrs []mshrEntry
	wbBuf []wbEntry
	// pendingFwd stalls forwarded requests that raced ahead of the
	// data grant making this tile the owner (virtual-network 2
	// messages can overtake virtual-network 1 in the real NoC); they
	// replay, in arrival order, after the fill installs.
	pendingFwd  []fwdEntry
	prefetchOut int
	stats       tileStats

	// A tile whose tick was a pure stall leaves System.awake until the
	// next message reaches handleL1. sleep is the counter it is owed
	// one cycle of for every sweep after sleptAt; Stats adds the debt
	// on read, wake settles it.
	sleep   uint8  //simlint:derived rebuilt by rederive: every tile restarts awake
	sleptAt uint64 //simlint:derived rebuilt by rederive: every tile restarts awake, owed nothing

	// Home (directory + L2 bank) side. waitq holds the requests that
	// arrived while their line was busy, for the lines that have any.
	dir       lineTable[dirLine]
	waitq     map[uint64][]Msg
	sharers   sharerPool
	l2        *l2Bank
	victimBuf []vbEntry

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
	line        uint64
	value       uint64
	outstanding int
}

func newTile(id int, sys *System) *Tile {
	return &Tile{
		id:    id,
		sys:   sys,
		l1:    newL1(sys.cfg.L1Sets, sys.cfg.L1Ways),
		waitq: make(map[uint64][]Msg),
		l2:    newL2(sys.cfg.L2Lines),
	}
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
	return t.mshr(line) >= 0 || t.writeback(line) >= 0
}

// mshr returns the index of line's MSHR, or -1.
func (t *Tile) mshr(line uint64) int {
	for i := range t.mshrs {
		if t.mshrs[i].line == line {
			return i
		}
	}
	return -1
}

// writeback returns the index of line's writeback-buffer entry, or -1.
func (t *Tile) writeback(line uint64) int {
	for i := range t.wbBuf {
		if t.wbBuf[i].line == line {
			return i
		}
	}
	return -1
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
	if w := t.l1.lookup(line); w >= 0 {
		switch t.l1.stateOf(w) {
		case l1Modified, l1Exclusive:
			t.l1.setState(w, l1Modified)
			t.l1.value[w] = head.value
			t.popStore()
			return true
		case l1Shared:
			// Pin the S copy so the upgrade can be granted without
			// data; the claim travels in the GetM.
			t.l1.flags[w] |= l1Pinned
			haveLine = 1
		}
	}
	t.mshrs = append(t.mshrs, mshrEntry{line: line, kind: mshrStore, addr: head.addr, arg: head.value})
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
		if w := t.l1.lookup(line); w >= 0 {
			if t.l1.flags[w]&l1Prefetched != 0 {
				t.l1.flags[w] &^= l1Prefetched
				t.stats.PrefUseful++
			}
			t.observeLoad(op.Addr, t.l1.value[w])
			t.compute = uint64(t.sys.cfg.L1HitLat - 1)
			t.retire()
			return awake
		}
		t.l1.misses++
		t.mshrs = append(t.mshrs, mshrEntry{line: line, kind: mshrLoad, addr: op.Addr})
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
		if w := t.l1.lookup(line); w >= 0 && t.l1.stateOf(w) >= l1Exclusive {
			t.l1.setState(w, l1Modified)
			t.l1.value[w] += op.Arg
			t.sys.wl.Observe(t.id, op.Addr, t.l1.value[w])
			t.compute = uint64(t.sys.cfg.L1HitLat - 1)
			t.stats.Atomics++
			t.retire()
			return awake
		}
		var haveLine uint64
		if w := t.l1.probe(line); w >= 0 {
			t.l1.flags[w] |= l1Pinned
			haveLine = 1
		}
		t.l1.misses++
		t.mshrs = append(t.mshrs, mshrEntry{line: line, kind: mshrAtomic, addr: op.Addr, arg: op.Arg})
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
		if t.lineBusy(next) || t.l1.probe(next) >= 0 {
			continue
		}
		t.mshrs = append(t.mshrs, mshrEntry{line: next, kind: mshrPrefetch, addr: next << LineShift})
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
func (t *Tile) install(now sim.Cycle, line uint64, state uint8, value uint64) int {
	w := t.l1.victim(line)
	if w < 0 {
		panic(fmt.Sprintf("fullsys: tile %d cannot install line %#x, all ways pinned", t.id, line))
	}
	if t.l1.stateOf(w) != l1Invalid {
		t.evict(now, w)
	}
	t.l1.install(w, line, state, value)
	return w
}

// evict removes a valid line from the L1, issuing the writeback
// protocol for E/M lines. S lines drop silently.
func (t *Tile) evict(now sim.Cycle, w int) {
	line, value := t.l1.line[w], t.l1.value[w]
	switch t.l1.stateOf(w) {
	case l1Modified:
		t.holdWriteback(wbEntry{line: line, value: value, dirty: true})
		t.sys.sendAfter(now, 0, Msg{Type: PutM, Line: line, Src: t.id,
			Dst: t.sys.cfg.HomeOf(line), Value: value})
	case l1Exclusive:
		t.holdWriteback(wbEntry{line: line, value: value, dirty: false})
		t.sys.sendAfter(now, 0, Msg{Type: PutE, Line: line, Src: t.id,
			Dst: t.sys.cfg.HomeOf(line)})
	}
	t.l1.setState(w, l1Invalid)
}

// holdWriteback keeps an evicted line's data until its WBAck,
// replacing an entry the line already has.
func (t *Tile) holdWriteback(wb wbEntry) {
	if i := t.writeback(wb.line); i >= 0 {
		t.wbBuf[i] = wb
		return
	}
	t.wbBuf = append(t.wbBuf, wb)
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
		if w := t.l1.probe(m.Line); w >= 0 && t.l1.stateOf(w) >= l1Exclusive {
			t.l1.setState(w, l1Shared)
			t.sys.sendAfter(now, 0, Msg{Type: DataWB, Line: m.Line, Src: t.id, Dst: m.Src, Value: t.l1.value[w]})
			return
		}
		if i := t.writeback(m.Line); i >= 0 {
			t.sys.sendAfter(now, 0, Msg{Type: DataWB, Line: m.Line, Src: t.id, Dst: m.Src, Value: t.wbBuf[i].value})
			return
		}
		panic(fmt.Sprintf("fullsys: tile %d got %v without owning the line", t.id, m))

	case FwdGetM:
		if t.stallFwd(m) {
			return
		}
		req := int(m.Value)
		if w := t.l1.probe(m.Line); w >= 0 && t.l1.stateOf(w) >= l1Exclusive {
			value := t.l1.value[w]
			t.l1.setState(w, l1Invalid)
			t.sys.sendAfter(now, 0, Msg{Type: DataM, Line: m.Line, Src: t.id, Dst: req, Value: value})
			t.sys.sendAfter(now, 0, Msg{Type: FwdAck, Line: m.Line, Src: t.id, Dst: m.Src, Value: uint64(req)})
			return
		}
		if i := t.writeback(m.Line); i >= 0 {
			t.sys.sendAfter(now, 0, Msg{Type: DataM, Line: m.Line, Src: t.id, Dst: req, Value: t.wbBuf[i].value})
			t.sys.sendAfter(now, 0, Msg{Type: FwdAck, Line: m.Line, Src: t.id, Dst: m.Src, Value: uint64(req)})
			return
		}
		panic(fmt.Sprintf("fullsys: tile %d got %v without owning the line", t.id, m))

	case Inv:
		if w := t.l1.probe(m.Line); w >= 0 {
			if s := t.l1.stateOf(w); s >= l1Exclusive {
				panic(fmt.Sprintf("fullsys: tile %d got Inv while holding line %#x in %s",
					t.id, m.Line, l1StateName(s)))
			}
			t.l1.flags[w] &^= l1StateBits | l1Pinned
		} else if i := t.mshr(m.Line); i >= 0 && (t.mshrs[i].kind == mshrLoad || t.mshrs[i].kind == mshrPrefetch) {
			// The Inv may belong to a write serialized after our GetS
			// but whose invalidation overtook our DataS; the incoming
			// fill must be used once (demand load) or dropped entirely
			// (prefetch) and never installed.
			t.mshrs[i].inv = true
		}
		t.sys.sendAfter(now, 0, Msg{Type: InvAck, Line: m.Line, Src: t.id, Dst: m.Src})

	case WBAck:
		if i := t.writeback(m.Line); i >= 0 {
			t.wbBuf = deleteAt(t.wbBuf, i)
		}

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
	i := t.mshr(m.Line)
	if i < 0 {
		panic(fmt.Sprintf("fullsys: tile %d got %v with no MSHR", t.id, m))
	}
	e := t.mshrs[i]
	t.mshrs = deleteAt(t.mshrs, i)
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
		t.l1.flags[w] |= l1Prefetched
		t.replayFwds(now, m.Line)

	case mshrLoad:
		if e.inv {
			if m.Type != DataS {
				panic(fmt.Sprintf("fullsys: tile %d invalidated-in-flight fill with %v", t.id, m))
			}
			if t.stalledFwds(m.Line) > 0 {
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
			w := t.grant(m.Line)
			t.l1.value[w] = e.arg
		} else {
			t.install(now, m.Line, l1Modified, e.arg)
		}
		t.storeTxn = false
		t.popStore()
		t.replayFwds(now, m.Line)

	case mshrAtomic:
		var w int
		if m.Type == GrantM {
			w = t.grant(m.Line)
		} else {
			w = t.install(now, m.Line, l1Modified, m.Value)
		}
		t.l1.value[w] += e.arg
		t.sys.wl.Observe(t.id, e.addr, t.l1.value[w])
		t.stats.Atomics++
		t.retire()
		t.coreState = coreRunning
		t.replayFwds(now, m.Line)
	}
}

// grant upgrades the pinned S copy of line to M on a GrantM and
// returns its way.
func (t *Tile) grant(line uint64) int {
	w := t.l1.probe(line)
	if w < 0 {
		panic(fmt.Sprintf("fullsys: tile %d GrantM for absent line %#x", t.id, line))
	}
	t.l1.flags[w] = t.l1.flags[w]&l1Prefetched | l1Modified
	return w
}

// stallFwd queues a forwarded request that arrived before the data
// grant that makes this tile the owner; it replays after the fill.
func (t *Tile) stallFwd(m Msg) bool {
	if t.mshr(m.Line) < 0 {
		return false
	}
	for i := range t.pendingFwd {
		if f := &t.pendingFwd[i]; f.line == m.Line && f.msg.Type == noFwd {
			f.msg = m // the line's first forward takes its empty entry
			return true
		}
	}
	t.pendingFwd = append(t.pendingFwd, fwdEntry{line: m.Line, msg: m})
	return true
}

// stalledFwds counts the forwards stalled on line.
func (t *Tile) stalledFwds(line uint64) int {
	n := 0
	for i := range t.pendingFwd {
		if f := &t.pendingFwd[i]; f.line == line && f.msg.Type != noFwd {
			n++
		}
	}
	return n
}

// replayFwds re-dispatches, oldest first, the forwards stalled on the
// just-filled line when it filled; one that stalls again waits for the
// next fill.
func (t *Tile) replayFwds(now sim.Cycle, line uint64) {
	for n := t.stalledFwds(line); n > 0; n-- {
		t.handleL1(now, t.unstallFwd(line))
	}
}

// unstallFwd removes and returns the oldest forward stalled on line,
// which has one.
func (t *Tile) unstallFwd(line uint64) Msg {
	i := slices.IndexFunc(t.pendingFwd, func(f fwdEntry) bool { return f.line == line })
	m := t.pendingFwd[i].msg
	t.pendingFwd = slices.Delete(t.pendingFwd, i, i+1)
	return m
}
