package fullsys

import (
	"fmt"
	"slices"

	"repro/internal/sim"
)

// Directory line states (the home's view).
const (
	dirU  uint8 = iota // uncached: no L1 holds the line
	dirS               // one or more shared copies
	dirEM              // one exclusive/modified owner
)

// Directory transaction kinds (one blocking transaction per line).
const (
	txnFetchE  uint8 = iota // GetS, line uncached, memory fetch -> DataE
	txnFetchS               // GetS, line shared, memory fetch -> DataS
	txnFetchM               // GetM, line uncached, memory fetch -> DataM
	txnDowngrd              // GetS, owner must downgrade
	txnInvM                 // GetM, sharers must invalidate
	txnFwdM                 // GetM, ownership transfers owner -> req
)

// dirLine is the directory state for one line homed at this tile,
// keyed by the line in Tile.dir. It holds no pointers, so the collector
// never scans it: the line's sharers live in the tile's sharer pool,
// requests waiting on a busy line in Tile.waitq.
type dirLine struct {
	value   uint64 // the transaction's data, once it has it
	owner   int32
	sharers int32 // handle into Tile.sharers, 0 for none
	txn     dirTxn
	state   uint8
	busy    bool
}

// dirTxn is a line's blocking transaction, its data word aside (the
// record's value, so the record packs into 32 bytes). It outlives its
// end: the last one stays in the record, and in its checkpoint bytes.
type dirTxn struct {
	req          int32
	acks         int32
	kind         uint8
	needData     bool
	haveData     bool
	reqWasSharer bool
}

// sharerPool holds the sharer lists of one tile's directory entries.
// An entry names its list by handle, 0 for none; emptying a list
// frees the handle, and keeps its backing array, for reuse.
type sharerPool struct {
	lists [][]int32
	// lines is the line each handle is issued to, freeHandle while it
	// is free: what simcheck holds an entry's handle to.
	lines []uint64
	free  []int32
}

// freeHandle marks a free pool slot; no line address reaches it.
const freeHandle = ^uint64(0)

func (p *sharerPool) list(h int32) []int32 {
	if h == 0 {
		return nil
	}
	return p.lists[h-1]
}

// issue hands out a handle for line's list, recycling a free one.
func (p *sharerPool) issue(line uint64) int32 {
	if n := len(p.free); n > 0 {
		h := p.free[n-1]
		p.free, p.lines[h-1] = p.free[:n-1], line
		return h
	}
	p.lists, p.lines = append(p.lists, nil), append(p.lines, line)
	return int32(len(p.lists))
}

// add appends sharer s to the list *h names, unless it is there.
func (p *sharerPool) add(h *int32, line uint64, s int) {
	if slices.Contains(p.list(*h), int32(s)) {
		return
	}
	if *h == 0 {
		*h = p.issue(line)
	}
	p.lists[*h-1] = append(p.lists[*h-1], int32(s))
}

// clear empties the list *h names and frees its handle.
func (p *sharerPool) clear(h *int32) {
	if *h != 0 {
		p.lists[*h-1], p.lines[*h-1] = p.lists[*h-1][:0], freeHandle
		p.free = append(p.free, *h)
		*h = 0
	}
}

// dirLineOf returns (creating if needed) the directory entry for line.
// The pointer is good until the next insert into the directory, which
// may grow its table: handleHome looks its line up once, before it
// handles the message, and inserts no other line.
func (t *Tile) dirLineOf(line uint64) *dirLine {
	i := t.dir.find(line)
	if i < 0 {
		i = t.dir.insert(line)
		*t.dir.rec(i) = dirLine{state: dirU, owner: -1}
	}
	return t.dir.rec(i)
}

// checkLine holds a directory entry, under the simcheck build tag, to
// what its side tables promise: a queue is kept only while it is
// non-empty and the line busy, and the entry's sharer handle was issued
// to this line, so no two lines share one. The comparisons guard the
// Assert calls so that a passing check boxes no arguments.
func (t *Tile) checkLine(line uint64, d *dirLine) {
	if q, ok := t.waitq[line]; ok && (len(q) == 0 || !d.busy) {
		sim.Assert(false, "fullsys: home %d queues %d requests on line %#x, busy %v", t.id, len(q), line, d.busy)
	}
	if h := d.sharers; h != 0 && (h < 0 || int(h) > len(t.sharers.lines) || t.sharers.lines[h-1] != line) {
		sim.Assert(false, "fullsys: home %d line %#x holds sharer handle %d issued elsewhere", t.id, line, h)
	}
}

// handleHome processes a message addressed to this tile's directory /
// L2 bank.
func (t *Tile) handleHome(now sim.Cycle, m Msg) {
	d := t.dirLineOf(m.Line)
	switch m.Type {
	case GetS, GetM, PutM, PutE:
		if d.busy {
			t.waitq[m.Line] = append(t.waitq[m.Line], m)
		} else {
			t.homeRequest(now, d, m)
		}
	case DataWB, InvAck, FwdAck, MemData, MemWAck:
		t.homeResponse(now, d, m)
	default:
		panic(fmt.Sprintf("fullsys: home %d got unexpected %v", t.id, m))
	}
	if sim.Checking {
		t.checkLine(m.Line, d)
	}
}

// homeRequest handles a request when the line is not busy. All
// outgoing messages incur the directory service latency.
func (t *Tile) homeRequest(now sim.Cycle, d *dirLine, m Msg) {
	req := m.Src
	switch m.Type {
	case GetS:
		switch d.state {
		case dirU:
			if v, ok := t.readBank(m.Line); ok {
				d.state = dirEM
				d.owner = int32(req)
				t.reply(now, DataE, m.Line, req, v)
				return
			}
			t.beginTxn(d, dirTxn{kind: txnFetchE, req: int32(req)}, 0)
			t.memRead(now, m.Line)
		case dirS:
			if v, ok := t.readBank(m.Line); ok {
				t.sharers.add(&d.sharers, m.Line, req)
				t.reply(now, DataS, m.Line, req, v)
				return
			}
			t.beginTxn(d, dirTxn{kind: txnFetchS, req: int32(req)}, 0)
			t.memRead(now, m.Line)
		case dirEM:
			if int(d.owner) == req {
				panic(fmt.Sprintf("fullsys: home %d GetS from current owner %d line %#x", t.id, req, m.Line))
			}
			t.beginTxn(d, dirTxn{kind: txnDowngrd, req: int32(req)}, 0)
			t.reply(now, FwdGetS, m.Line, int(d.owner), 0)
		}

	case GetM:
		switch d.state {
		case dirU:
			if v, ok := t.readBank(m.Line); ok {
				d.state = dirEM
				d.owner = int32(req)
				t.reply(now, DataM, m.Line, req, v)
				return
			}
			t.beginTxn(d, dirTxn{kind: txnFetchM, req: int32(req)}, 0)
			t.memRead(now, m.Line)
		case dirS:
			// Grant without data only when the home still lists the
			// requester as a sharer AND the requester claims to hold
			// the line (m.Value == 1, set when it pinned its S copy).
			// Silent S evictions make the home's sharer list alone
			// unsound: a stale sharer asking for M has no data.
			sharers := t.sharers.list(d.sharers)
			was := slices.Contains(sharers, int32(req)) && m.Value == 1
			txn := dirTxn{kind: txnInvM, req: int32(req), reqWasSharer: was, needData: !was}
			var value uint64
			for _, s := range sharers {
				if int(s) == req {
					continue
				}
				txn.acks++
			}
			if txn.needData {
				if v, ok := t.readBank(m.Line); ok {
					txn.haveData = true
					value = v
				}
			}
			if txn.acks == 0 && (!txn.needData || txn.haveData) {
				// No invalidations outstanding and data on hand.
				t.finishInvM(now, d, m.Line, txn, value)
				return
			}
			t.beginTxn(d, txn, value)
			for _, s := range sharers {
				if int(s) != req {
					t.reply(now, Inv, m.Line, int(s), 0)
				}
			}
			if txn.needData && !txn.haveData {
				t.memRead(now, m.Line)
			}
		case dirEM:
			if int(d.owner) == req {
				panic(fmt.Sprintf("fullsys: home %d GetM from current owner %d line %#x", t.id, req, m.Line))
			}
			t.beginTxn(d, dirTxn{kind: txnFwdM, req: int32(req)}, 0)
			t.reply(now, FwdGetM, m.Line, int(d.owner), uint64(req))
		}

	case PutM:
		if d.state == dirEM && int(d.owner) == req {
			t.writeBank(now, m.Line, m.Value, true)
			d.state = dirU
			d.owner = -1
		}
		// A stale PutM (the line has since moved on) is acknowledged
		// and its data dropped: a newer version exists elsewhere.
		t.reply(now, WBAck, m.Line, req, 0)

	case PutE:
		if d.state == dirEM && int(d.owner) == req {
			d.state = dirU
			d.owner = -1
		}
		t.reply(now, WBAck, m.Line, req, 0)
	}
}

// homeResponse advances the line's blocking transaction.
func (t *Tile) homeResponse(now sim.Cycle, d *dirLine, m Msg) {
	switch m.Type {
	case MemWAck:
		i := t.victim(m.Line)
		if i < 0 {
			panic(fmt.Sprintf("fullsys: home %d MemWAck with empty victim buffer line %#x", t.id, m.Line))
		}
		if t.victimBuf[i].outstanding--; t.victimBuf[i].outstanding == 0 {
			t.victimBuf = deleteAt(t.victimBuf, i)
		}
		return

	case MemData:
		if !d.busy {
			panic(fmt.Sprintf("fullsys: home %d MemData for idle line %#x", t.id, m.Line))
		}
		t.writeBank(now, m.Line, m.Value, false)
		switch d.txn.kind {
		case txnFetchE:
			d.state = dirEM
			d.owner = d.txn.req
			t.reply(now, DataE, m.Line, int(d.txn.req), m.Value)
			t.endTxn(now, d, m.Line)
		case txnFetchS:
			t.sharers.add(&d.sharers, m.Line, int(d.txn.req))
			t.reply(now, DataS, m.Line, int(d.txn.req), m.Value)
			t.endTxn(now, d, m.Line)
		case txnFetchM:
			d.state = dirEM
			d.owner = d.txn.req
			t.reply(now, DataM, m.Line, int(d.txn.req), m.Value)
			t.endTxn(now, d, m.Line)
		case txnInvM:
			d.txn.haveData = true
			d.value = m.Value
			t.maybeFinishInvM(now, d, m.Line)
		default:
			panic(fmt.Sprintf("fullsys: home %d MemData during txn %d", t.id, d.txn.kind))
		}
		return

	case DataWB:
		if !d.busy || d.txn.kind != txnDowngrd {
			panic(fmt.Sprintf("fullsys: home %d unexpected %v", t.id, m))
		}
		t.writeBank(now, m.Line, m.Value, true)
		owner := d.owner
		d.state = dirS
		d.owner = -1
		t.sharers.clear(&d.sharers)
		t.sharers.add(&d.sharers, m.Line, int(owner))
		t.sharers.add(&d.sharers, m.Line, int(d.txn.req))
		t.reply(now, DataS, m.Line, int(d.txn.req), m.Value)
		t.endTxn(now, d, m.Line)
		return

	case InvAck:
		if !d.busy || d.txn.kind != txnInvM {
			panic(fmt.Sprintf("fullsys: home %d unexpected %v", t.id, m))
		}
		d.txn.acks--
		if d.txn.acks < 0 {
			panic(fmt.Sprintf("fullsys: home %d extra InvAck line %#x", t.id, m.Line))
		}
		t.maybeFinishInvM(now, d, m.Line)
		return

	case FwdAck:
		if !d.busy || d.txn.kind != txnFwdM {
			panic(fmt.Sprintf("fullsys: home %d unexpected %v", t.id, m))
		}
		d.owner = d.txn.req
		t.endTxn(now, d, m.Line)
		return
	}
	panic(fmt.Sprintf("fullsys: home %d unhandled response %v", t.id, m))
}

func (t *Tile) maybeFinishInvM(now sim.Cycle, d *dirLine, line uint64) {
	if d.txn.acks > 0 || (d.txn.needData && !d.txn.haveData) {
		return
	}
	t.finishInvM(now, d, line, d.txn, d.value)
	t.endTxn(now, d, line)
}

// finishInvM grants M to the requester once all sharers are gone.
func (t *Tile) finishInvM(now sim.Cycle, d *dirLine, line uint64, txn dirTxn, value uint64) {
	d.state = dirEM
	d.owner = txn.req
	t.sharers.clear(&d.sharers)
	if txn.reqWasSharer {
		t.reply(now, GrantM, line, int(txn.req), 0)
	} else {
		t.reply(now, DataM, line, int(txn.req), value)
	}
}

func (t *Tile) beginTxn(d *dirLine, txn dirTxn, value uint64) {
	d.busy = true
	d.txn, d.value = txn, value
}

// endTxn unblocks the line and replays queued requests until one of
// them blocks it again.
func (t *Tile) endTxn(now sim.Cycle, d *dirLine, line uint64) {
	d.busy = false
	for !d.busy && len(t.waitq[line]) > 0 {
		q := t.waitq[line]
		m := q[0]
		if q = q[:copy(q, q[1:])]; len(q) == 0 {
			delete(t.waitq, line)
		} else {
			t.waitq[line] = q
		}
		t.homeRequest(now, d, m)
	}
}

// reply sends a directory-side message after the bank service latency.
func (t *Tile) reply(now sim.Cycle, typ MsgType, line uint64, dst int, value uint64) {
	t.sys.sendAfter(now, t.sys.cfg.DirLat, Msg{Type: typ, Line: line, Src: t.id, Dst: dst, Value: value})
}

// readBank returns the line's data from the L2 bank or the victim
// buffer.
func (t *Tile) readBank(line uint64) (uint64, bool) {
	if l := t.l2.get(line); l != nil {
		t.l2.hits++
		return l.value, true
	}
	if i := t.victim(line); i >= 0 {
		return t.victimBuf[i].value, true
	}
	t.l2.misses++
	return 0, false
}

// writeBank installs data into the L2 bank, spilling a dirty victim to
// memory through the victim buffer.
func (t *Tile) writeBank(now sim.Cycle, line uint64, value uint64, dirty bool) {
	evLine, evVal, wb := t.l2.put(line, value, dirty)
	if !wb {
		return
	}
	t.holdVictim(evLine, evVal)
	t.sys.sendAfter(now, t.sys.cfg.DirLat, Msg{Type: MemWrite, Line: evLine, Src: t.id,
		Dst: t.sys.mcOf(evLine), Value: evVal})
}

// holdVictim keeps a dirty victim's data until its MemWAck, counting
// a re-eviction of a line the buffer already holds.
func (t *Tile) holdVictim(line, value uint64) {
	i := t.victim(line)
	if i < 0 {
		i = len(t.victimBuf)
		t.victimBuf = append(t.victimBuf, vbEntry{line: line})
	}
	t.victimBuf[i].value = value
	t.victimBuf[i].outstanding++
}

// victim returns the index of line's victim-buffer entry, or -1.
func (t *Tile) victim(line uint64) int {
	for i := range t.victimBuf {
		if t.victimBuf[i].line == line {
			return i
		}
	}
	return -1
}

// memRead requests a line fill from the line's memory controller.
func (t *Tile) memRead(now sim.Cycle, line uint64) {
	t.sys.sendAfter(now, t.sys.cfg.DirLat, Msg{Type: MemRead, Line: line, Src: t.id, Dst: t.sys.mcOf(line)})
}

// handleMC processes memory-controller traffic at a controller tile,
// via the fixed-latency model or the detailed DRAM bank model.
func (t *Tile) handleMC(now sim.Cycle, m Msg) {
	if t.mem == nil {
		panic(fmt.Sprintf("fullsys: tile %d is not a memory controller (%v)", t.id, m))
	}
	if m.Type != MemRead && m.Type != MemWrite {
		panic(fmt.Sprintf("fullsys: MC %d got unexpected %v", t.id, m))
	}
	if t.memOracle != nil {
		t.handleMCOracle(now, m)
		return
	}
	if t.mcNextFree < now {
		t.mcNextFree = now
	}
	queue := t.mcNextFree - now
	t.mcNextFree += sim.Cycle(t.sys.cfg.MCOccupancy)
	switch m.Type {
	case MemRead:
		v := t.mem[m.Line]
		t.sys.sendAfter(now, int(queue)+t.sys.cfg.MemLat,
			Msg{Type: MemData, Line: m.Line, Src: t.id, Dst: m.Src, Value: v})
	case MemWrite:
		t.mem[m.Line] = m.Value
		t.sys.sendAfter(now, int(queue)+t.sys.cfg.MemLat,
			Msg{Type: MemWAck, Line: m.Line, Src: t.id, Dst: m.Src})
	}
}

// handleMCOracle routes the access through the tile's memory oracle
// (detailed, abstract, or calibrated). The home's victim buffer
// guarantees no read/write overlap per line, so applying the write and
// reading the value at completion time is safe even though FR-FCFS
// reorders across lines. Completions come back through
// System.CompleteMem — either from the standalone self-advance in Tick
// or from a co-simulation coordinator at quantum boundaries — and
// always flow through the event queue, which keeps each (source, vnet)
// injection stream monotonic as the network requires.
func (t *Tile) handleMCOracle(now sim.Cycle, m Msg) {
	if !t.memOracle.Enqueue(memRequest(m), now) {
		// Bounded queue full: retry next cycle.
		t.sys.events.Schedule(now+1, sysEvent{kind: evMCRetry, msg: m})
	}
}
