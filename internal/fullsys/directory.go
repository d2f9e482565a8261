package fullsys

import (
	"fmt"

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

// dirLine is the directory state for one line homed at this tile.
type dirLine struct {
	line    uint64
	state   uint8
	owner   int32
	sharers []int32

	busy  bool
	waitq []Msg
	txn   dirTxn
}

type dirTxn struct {
	kind         uint8
	req          int32
	acks         int
	needData     bool
	haveData     bool
	value        uint64
	reqWasSharer bool
}

func (d *dirLine) addSharer(t int) {
	for _, s := range d.sharers {
		if s == int32(t) {
			return
		}
	}
	d.sharers = append(d.sharers, int32(t))
}

func (d *dirLine) hasSharer(t int) bool {
	for _, s := range d.sharers {
		if s == int32(t) {
			return true
		}
	}
	return false
}

// dirLineOf returns (creating if needed) the directory entry for line.
func (t *Tile) dirLineOf(line uint64) *dirLine {
	d := t.dir[line]
	if d == nil {
		d = &dirLine{line: line, state: dirU, owner: -1}
		t.dir[line] = d
	}
	return d
}

// handleHome processes a message addressed to this tile's directory /
// L2 bank.
func (t *Tile) handleHome(now sim.Cycle, m Msg) {
	d := t.dirLineOf(m.Line)
	switch m.Type {
	case GetS, GetM, PutM, PutE:
		if d.busy {
			d.waitq = append(d.waitq, m)
			return
		}
		t.homeRequest(now, d, m)
	case DataWB, InvAck, FwdAck, MemData, MemWAck:
		t.homeResponse(now, d, m)
	default:
		panic(fmt.Sprintf("fullsys: home %d got unexpected %v", t.id, m))
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
			t.beginTxn(d, dirTxn{kind: txnFetchE, req: int32(req)})
			t.memRead(now, m.Line)
		case dirS:
			if v, ok := t.readBank(m.Line); ok {
				d.addSharer(req)
				t.reply(now, DataS, m.Line, req, v)
				return
			}
			t.beginTxn(d, dirTxn{kind: txnFetchS, req: int32(req)})
			t.memRead(now, m.Line)
		case dirEM:
			if int(d.owner) == req {
				panic(fmt.Sprintf("fullsys: home %d GetS from current owner %d line %#x", t.id, req, m.Line))
			}
			t.beginTxn(d, dirTxn{kind: txnDowngrd, req: int32(req)})
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
			t.beginTxn(d, dirTxn{kind: txnFetchM, req: int32(req)})
			t.memRead(now, m.Line)
		case dirS:
			// Grant without data only when the home still lists the
			// requester as a sharer AND the requester claims to hold
			// the line (m.Value == 1, set when it pinned its S copy).
			// Silent S evictions make the home's sharer list alone
			// unsound: a stale sharer asking for M has no data.
			was := d.hasSharer(req) && m.Value == 1
			txn := dirTxn{kind: txnInvM, req: int32(req), reqWasSharer: was, needData: !was}
			for _, s := range d.sharers {
				if int(s) == req {
					continue
				}
				txn.acks++
			}
			if txn.needData {
				if v, ok := t.readBank(m.Line); ok {
					txn.haveData = true
					txn.value = v
				}
			}
			if txn.acks == 0 && (!txn.needData || txn.haveData) {
				// No invalidations outstanding and data on hand.
				t.finishInvM(now, d, txn)
				return
			}
			t.beginTxn(d, txn)
			for _, s := range d.sharers {
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
			t.beginTxn(d, dirTxn{kind: txnFwdM, req: int32(req)})
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
		vb := t.victimBuf[m.Line]
		if vb == nil {
			panic(fmt.Sprintf("fullsys: home %d MemWAck with empty victim buffer line %#x", t.id, m.Line))
		}
		vb.outstanding--
		if vb.outstanding == 0 {
			delete(t.victimBuf, m.Line)
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
			d.addSharer(int(d.txn.req))
			t.reply(now, DataS, m.Line, int(d.txn.req), m.Value)
			t.endTxn(now, d, m.Line)
		case txnFetchM:
			d.state = dirEM
			d.owner = d.txn.req
			t.reply(now, DataM, m.Line, int(d.txn.req), m.Value)
			t.endTxn(now, d, m.Line)
		case txnInvM:
			d.txn.haveData = true
			d.txn.value = m.Value
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
		d.sharers = d.sharers[:0]
		d.addSharer(int(owner))
		d.addSharer(int(d.txn.req))
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
	txn := d.txn
	t.finishInvM(now, d, txn)
	t.endTxn(now, d, line)
}

// finishInvM grants M to the requester once all sharers are gone.
func (t *Tile) finishInvM(now sim.Cycle, d *dirLine, txn dirTxn) {
	d.state = dirEM
	d.owner = txn.req
	d.sharers = d.sharers[:0]
	if txn.reqWasSharer {
		t.reply(now, GrantM, d.line, int(txn.req), 0)
	} else {
		t.reply(now, DataM, d.line, int(txn.req), txn.value)
	}
}

func (t *Tile) beginTxn(d *dirLine, txn dirTxn) {
	d.busy = true
	d.txn = txn
}

// endTxn unblocks the line and replays queued requests until one of
// them blocks it again.
func (t *Tile) endTxn(now sim.Cycle, d *dirLine, line uint64) {
	d.busy = false
	for !d.busy && len(d.waitq) > 0 {
		m := d.waitq[0]
		d.waitq = d.waitq[:copy(d.waitq, d.waitq[1:])]
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
	if vb, ok := t.victimBuf[line]; ok {
		return vb.value, true
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
	vb := t.victimBuf[evLine]
	if vb == nil {
		vb = &vbEntry{}
		t.victimBuf[evLine] = vb
	}
	vb.value = evVal
	vb.outstanding++
	t.sys.sendAfter(now, t.sys.cfg.DirLat, Msg{Type: MemWrite, Line: evLine, Src: t.id,
		Dst: t.sys.mcOf(evLine), Value: evVal})
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
	if !t.memOracle.Enqueue(m.Line, m.Type == MemWrite, m, now) {
		// Bounded queue full: retry next cycle.
		t.sys.events.Schedule(now+1, sysEvent{kind: evMCRetry, msg: m})
	}
}
