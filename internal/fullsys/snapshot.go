package fullsys

import (
	"fmt"
	"sort"

	"repro/internal/dram"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// This file enumerates every piece of mutable full-system state into
// the checkpoint format. The inverse restore validates structural
// invariants (state enums in range, endpoints inside the machine, map
// keys consistent) so a corrupted stream fails loudly instead of
// resuming a subtly wrong machine. All maps are written in sorted key
// order, keeping the encoded bytes — and therefore golden snapshot
// files — deterministic.

// MsgCodec is a snapshot.PayloadCodec serializing Msg packet payloads
// for the network-side snapshot. Tiles bounds endpoint validation.
type MsgCodec struct {
	Tiles int
}

// EncodePayload implements snapshot.PayloadCodec.
func (c MsgCodec) EncodePayload(e *snapshot.Encoder, v interface{}) {
	if v == nil {
		e.Bool(false)
		return
	}
	m, ok := v.(Msg)
	if !ok {
		panic(fmt.Sprintf("fullsys: packet payload is %T, not Msg", v))
	}
	e.Bool(true)
	encodeMsg(e, m)
}

// DecodePayload implements snapshot.PayloadCodec.
func (c MsgCodec) DecodePayload(d *snapshot.Decoder) (interface{}, error) {
	if !d.Bool() {
		return nil, d.Err()
	}
	m := Msg{Type: MsgType(d.U8()), Line: d.U64(), Src: d.Int(), Dst: d.Int(), Value: d.U64()}
	if d.Err() != nil {
		return nil, d.Err()
	}
	if m.Type >= numMsgTypes {
		d.Failf("payload message type %d out of range", m.Type)
	} else if m.Src < 0 || m.Src >= c.Tiles || m.Dst < 0 || m.Dst >= c.Tiles {
		d.Failf("payload message endpoints %d->%d outside %d tiles", m.Src, m.Dst, c.Tiles)
	}
	return m, d.Err()
}

func encodeMsg(e *snapshot.Encoder, m Msg) {
	e.U8(uint8(m.Type))
	e.U64(m.Line)
	e.Int(m.Src)
	e.Int(m.Dst)
	e.U64(m.Value)
}

func (s *System) decodeMsg(d *snapshot.Decoder) (Msg, error) {
	m := Msg{Type: MsgType(d.U8()), Line: d.U64(), Src: d.Int(), Dst: d.Int(), Value: d.U64()}
	if d.Err() != nil {
		return m, d.Err()
	}
	if m.Type >= numMsgTypes {
		d.Failf("message type %d out of range", m.Type)
	} else if m.Src < 0 || m.Src >= s.cfg.Tiles || m.Dst < 0 || m.Dst >= s.cfg.Tiles {
		d.Failf("message endpoints %d->%d outside %d tiles", m.Src, m.Dst, s.cfg.Tiles)
	}
	return m, d.Err()
}

func encodeSysEvent(e *snapshot.Encoder, ev sysEvent) {
	e.U8(uint8(ev.kind))
	encodeMsg(e, ev.msg)
}

func (s *System) decodeSysEvent(d *snapshot.Decoder) (sysEvent, error) {
	k := evKind(d.U8())
	m, err := s.decodeMsg(d)
	if err != nil {
		return sysEvent{}, err
	}
	if k >= numEvKinds {
		d.Failf("event kind %d out of range", k)
	}
	return sysEvent{kind: k, msg: m}, d.Err()
}

// sortedKeys returns a map's keys in ascending order. The map is
// ranged once to collect; iteration order cannot reach the output.
func sortedKeys[V any](m map[uint64]V) []uint64 {
	keys := make([]uint64, 0, len(m))
	//simlint:allow maprange keys collected here are sorted before use
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// SnapshotTo writes the complete system state: clock, counters, barrier
// occupancy, pending events, workload position, and every tile.
func (s *System) SnapshotTo(e *snapshot.Encoder) {
	e.Section("fullsys")
	e.U64(uint64(s.now))
	e.U64(s.msgsSent)
	e.U64(s.flitsSent)
	e.U64(s.localMsgs)
	for _, c := range s.msgsByType {
		e.U64(c)
	}
	ids := make([]uint64, 0, len(s.barrier))
	//simlint:allow maprange keys collected here are sorted before use
	for id := range s.barrier {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.U32(uint32(len(ids)))
	for _, id := range ids {
		e.U64(id)
		e.Int(s.barrier[id])
	}
	s.events.SnapshotTo(e, encodeSysEvent)
	st, ok := s.wl.(snapshot.Stater)
	e.Bool(ok)
	if ok {
		st.SnapshotTo(e)
	}
	for _, t := range s.tiles {
		t.snapshotTo(e)
	}
}

// RestoreFrom reloads a state written by SnapshotTo into a freshly
// constructed system with the same configuration and workload shape.
func (s *System) RestoreFrom(d *snapshot.Decoder) error {
	d.Section("fullsys")
	s.now = sim.Cycle(d.U64())
	s.msgsSent = d.U64()
	s.flitsSent = d.U64()
	s.localMsgs = d.U64()
	for i := range s.msgsByType {
		s.msgsByType[i] = d.U64()
	}
	s.barrier = make(map[uint64]int)
	nb := d.Count(16)
	for i := 0; i < nb; i++ {
		id := d.U64()
		cnt := d.Int()
		if d.Err() == nil && (cnt < 1 || cnt >= s.cfg.Tiles) {
			d.Failf("barrier %d has %d arrivals, want 1..%d", id, cnt, s.cfg.Tiles-1)
		}
		s.barrier[id] = cnt
	}
	if err := s.events.RestoreFrom(d, s.decodeSysEvent); err != nil {
		return err
	}
	hasWl := d.Bool()
	st, ok := s.wl.(snapshot.Stater)
	if d.Err() == nil && hasWl != ok {
		d.Failf("workload snapshot presence mismatch: snapshot %v, workload %T", hasWl, s.wl)
	}
	if d.Err() == nil && hasWl {
		if err := st.RestoreFrom(d); err != nil {
			return err
		}
	}
	for _, t := range s.tiles {
		if err := t.restoreFrom(d); err != nil {
			return err
		}
	}
	s.rederive()
	return d.Err()
}

func (t *Tile) snapshotTo(e *snapshot.Encoder) {
	// Core side.
	e.U8(t.coreState)
	e.U64(t.compute)
	e.U8(uint8(t.curOp.Kind))
	e.U64(t.curOp.Addr)
	e.U64(t.curOp.Arg)
	e.Bool(t.opValid)
	e.U32(uint32(len(t.storeBuf)))
	for _, se := range t.storeBuf {
		e.U64(se.addr)
		e.U64(se.value)
	}
	e.Bool(t.storeTxn)
	t.l1.snapshotTo(e)
	mshrKeys := sortedKeys(t.mshrs)
	e.U32(uint32(len(mshrKeys)))
	for _, line := range mshrKeys {
		m := t.mshrs[line]
		e.U64(line)
		e.U8(m.kind)
		e.U64(m.addr)
		e.U64(m.arg)
		e.Bool(m.inv)
	}
	wbKeys := sortedKeys(t.wbBuf)
	e.U32(uint32(len(wbKeys)))
	for _, line := range wbKeys {
		wb := t.wbBuf[line]
		e.U64(line)
		e.U64(wb.value)
		e.Bool(wb.dirty)
	}
	fwdKeys := sortedKeys(t.pendingFwd)
	e.U32(uint32(len(fwdKeys)))
	for _, line := range fwdKeys {
		e.U64(line)
		msgs := t.pendingFwd[line]
		e.U32(uint32(len(msgs)))
		for _, m := range msgs {
			encodeMsg(e, m)
		}
	}
	e.Int(t.prefetchOut)
	st := t.Stats()
	e.U64(st.Retired)
	e.U64(st.Loads)
	e.U64(st.Stores)
	e.U64(st.Atomics)
	e.U64(st.Barriers)
	e.U64(st.LoadStall)
	e.U64(st.BarStall)
	e.U64(st.SBStall)
	e.U64(st.Compute)
	e.U64(uint64(st.HaltedAt))
	e.U64(st.PrefIssued)
	e.U64(st.PrefUseful)

	// Home side.
	dirKeys := sortedKeys(t.dir)
	e.U32(uint32(len(dirKeys)))
	for _, line := range dirKeys {
		dl := t.dir[line]
		e.U64(line)
		e.U8(dl.state)
		e.I64(int64(dl.owner))
		e.U32(uint32(len(dl.sharers)))
		for _, sh := range dl.sharers {
			e.I64(int64(sh))
		}
		e.Bool(dl.busy)
		e.U32(uint32(len(dl.waitq)))
		for _, m := range dl.waitq {
			encodeMsg(e, m)
		}
		e.U8(dl.txn.kind)
		e.I64(int64(dl.txn.req))
		e.Int(dl.txn.acks)
		e.Bool(dl.txn.needData)
		e.Bool(dl.txn.haveData)
		e.U64(dl.txn.value)
		e.Bool(dl.txn.reqWasSharer)
	}
	t.l2.snapshotTo(e)
	vbKeys := sortedKeys(t.victimBuf)
	e.U32(uint32(len(vbKeys)))
	for _, line := range vbKeys {
		vb := t.victimBuf[line]
		e.U64(line)
		e.U64(vb.value)
		e.Int(vb.outstanding)
	}

	// Memory-controller side.
	e.Bool(t.mem != nil)
	if t.mem != nil {
		memKeys := sortedKeys(t.mem)
		e.U32(uint32(len(memKeys)))
		for _, line := range memKeys {
			e.U64(line)
			e.U64(t.mem[line])
		}
	}
	e.U64(uint64(t.mcNextFree))
	e.Bool(t.memOracle != nil)
	if t.memOracle != nil {
		t.memOracle.(dram.OracleStater).SnapshotTo(e, func(e *snapshot.Encoder, meta interface{}) {
			encodeMsg(e, meta.(Msg))
		})
	}
}

func (t *Tile) restoreFrom(d *snapshot.Decoder) error {
	d.Enter(fmt.Sprintf("tile[%d]", t.id))
	defer d.Leave()
	s := t.sys

	// Core side.
	t.coreState = d.U8()
	if d.Err() == nil && t.coreState > coreHalted {
		d.Failf("core state %d out of range", t.coreState)
	}
	t.compute = d.U64()
	t.curOp = Op{Kind: OpKind(d.U8()), Addr: d.U64(), Arg: d.U64()}
	t.opValid = d.Bool()
	nsb := d.Count(16)
	if d.Err() == nil && nsb > s.cfg.StoreBuf {
		d.Failf("store buffer has %d entries, capacity %d", nsb, s.cfg.StoreBuf)
	}
	t.storeBuf = t.storeBuf[:0]
	for i := 0; i < nsb; i++ {
		t.storeBuf = append(t.storeBuf, storeEntry{addr: d.U64(), value: d.U64()})
	}
	t.storeTxn = d.Bool()
	if err := t.l1.restoreFrom(d); err != nil {
		return err
	}
	t.mshrs = make(map[uint64]*mshrEntry)
	nm := d.Count(26)
	for i := 0; i < nm; i++ {
		line := d.U64()
		m := &mshrEntry{kind: d.U8(), addr: d.U64(), arg: d.U64(), inv: d.Bool()}
		if d.Err() == nil && m.kind > mshrPrefetch {
			d.Failf("MSHR kind %d out of range", m.kind)
		}
		t.mshrs[line] = m
	}
	t.wbBuf = make(map[uint64]wbEntry)
	nwb := d.Count(17)
	for i := 0; i < nwb; i++ {
		line := d.U64()
		t.wbBuf[line] = wbEntry{value: d.U64(), dirty: d.Bool()}
	}
	t.pendingFwd = make(map[uint64][]Msg)
	nfwd := d.Count(12)
	for i := 0; i < nfwd; i++ {
		line := d.U64()
		nmsg := d.Count(33)
		msgs := make([]Msg, 0, nmsg)
		for j := 0; j < nmsg; j++ {
			m, err := s.decodeMsg(d)
			if err != nil {
				return err
			}
			msgs = append(msgs, m)
		}
		t.pendingFwd[line] = msgs
	}
	t.prefetchOut = d.Int()
	st := &t.stats
	st.Retired = d.U64()
	st.Loads = d.U64()
	st.Stores = d.U64()
	st.Atomics = d.U64()
	st.Barriers = d.U64()
	st.LoadStall = d.U64()
	st.BarStall = d.U64()
	st.SBStall = d.U64()
	st.Compute = d.U64()
	st.HaltedAt = sim.Cycle(d.U64())
	st.PrefIssued = d.U64()
	st.PrefUseful = d.U64()

	// Home side.
	t.dir = make(map[uint64]*dirLine)
	nd := d.Count(40)
	for i := 0; i < nd; i++ {
		line := d.U64()
		dl := &dirLine{line: line}
		dl.state = d.U8()
		if d.Err() == nil && dl.state > dirEM {
			d.Failf("directory state %d out of range", dl.state)
		}
		dl.owner = int32(d.I64())
		nsh := d.Count(8)
		for j := 0; j < nsh; j++ {
			dl.sharers = append(dl.sharers, int32(d.I64()))
		}
		dl.busy = d.Bool()
		nwq := d.Count(33)
		for j := 0; j < nwq; j++ {
			m, err := s.decodeMsg(d)
			if err != nil {
				return err
			}
			dl.waitq = append(dl.waitq, m)
		}
		dl.txn.kind = d.U8()
		if d.Err() == nil && dl.txn.kind > txnFwdM {
			d.Failf("directory transaction kind %d out of range", dl.txn.kind)
		}
		dl.txn.req = int32(d.I64())
		dl.txn.acks = d.Int()
		dl.txn.needData = d.Bool()
		dl.txn.haveData = d.Bool()
		dl.txn.value = d.U64()
		dl.txn.reqWasSharer = d.Bool()
		t.dir[line] = dl
	}
	if err := t.l2.restoreFrom(d); err != nil {
		return err
	}
	t.victimBuf = make(map[uint64]*vbEntry)
	nvb := d.Count(24)
	for i := 0; i < nvb; i++ {
		line := d.U64()
		t.victimBuf[line] = &vbEntry{value: d.U64(), outstanding: d.Int()}
	}

	// Memory-controller side.
	hasMem := d.Bool()
	if d.Err() == nil && hasMem != (t.mem != nil) {
		d.Failf("memory-controller presence mismatch: snapshot %v, target %v", hasMem, t.mem != nil)
	}
	if d.Err() == nil && hasMem {
		t.mem = make(map[uint64]uint64)
		nmem := d.Count(16)
		for i := 0; i < nmem; i++ {
			line := d.U64()
			t.mem[line] = d.U64()
		}
	}
	t.mcNextFree = sim.Cycle(d.U64())
	hasOracle := d.Bool()
	if d.Err() == nil && hasOracle != (t.memOracle != nil) {
		d.Failf("memory oracle presence mismatch: snapshot %v, target %v", hasOracle, t.memOracle != nil)
	}
	if d.Err() == nil && hasOracle {
		err := t.memOracle.(dram.OracleStater).RestoreFrom(d, func(d *snapshot.Decoder) (interface{}, error) {
			m, err := s.decodeMsg(d)
			if err != nil {
				return nil, err
			}
			if m.Type != MemRead && m.Type != MemWrite {
				d.Failf("memory oracle metadata has non-memory message %v", m)
				return nil, d.Err()
			}
			return m, d.Err()
		})
		if err != nil {
			return err
		}
	}
	return d.Err()
}

// SnapshotTo writes a scripted workload's per-core position and
// observation log (the op lists themselves are construction inputs).
func (s *Script) SnapshotTo(e *snapshot.Encoder) {
	e.Section("script")
	e.U32(uint32(len(s.pos)))
	for c := range s.pos {
		e.Int(s.pos[c])
		e.U32(uint32(len(s.observed[c])))
		for _, v := range s.observed[c] {
			e.U64(v)
		}
	}
}

// RestoreFrom reloads a position written by SnapshotTo into a script
// built over the same op lists.
func (s *Script) RestoreFrom(d *snapshot.Decoder) error {
	d.Section("script")
	if n := int(d.U32()); d.Err() == nil && n != len(s.pos) {
		d.Failf("script snapshot has %d cores, script has %d", n, len(s.pos))
		return d.Err()
	}
	for c := range s.pos {
		s.pos[c] = d.Int()
		if d.Err() == nil && (s.pos[c] < 0 || s.pos[c] > len(s.Ops[c])) {
			d.Failf("core %d script position %d outside 0..%d", c, s.pos[c], len(s.Ops[c]))
			return d.Err()
		}
		n := d.Count(8)
		s.observed[c] = s.observed[c][:0]
		for i := 0; i < n; i++ {
			s.observed[c] = append(s.observed[c], d.U64())
		}
	}
	return d.Err()
}

func (c *l1Cache) snapshotTo(e *snapshot.Encoder) {
	e.U32(uint32(len(c.sets)))
	ways := 0
	if len(c.sets) > 0 {
		ways = len(c.sets[0])
	}
	e.U32(uint32(ways))
	for _, set := range c.sets {
		for i := range set {
			w := &set[i]
			e.U64(w.line)
			e.U8(w.state)
			e.Bool(w.pinned)
			e.Bool(w.prefetched)
			e.U64(w.value)
			e.U64(w.lru)
		}
	}
	e.U64(c.tick)
	e.U64(c.hits)
	e.U64(c.misses)
}

func (c *l1Cache) restoreFrom(d *snapshot.Decoder) error {
	sets := int(d.U32())
	ways := int(d.U32())
	if d.Err() != nil {
		return d.Err()
	}
	wantWays := 0
	if len(c.sets) > 0 {
		wantWays = len(c.sets[0])
	}
	if sets != len(c.sets) || ways != wantWays {
		d.Failf("L1 geometry mismatch: snapshot %dx%d, target %dx%d", sets, ways, len(c.sets), wantWays)
		return d.Err()
	}
	for _, set := range c.sets {
		for i := range set {
			w := &set[i]
			w.line = d.U64()
			w.state = d.U8()
			if d.Err() == nil && w.state > l1Modified {
				d.Failf("L1 state %d out of range", w.state)
			}
			w.pinned = d.Bool()
			w.prefetched = d.Bool()
			w.value = d.U64()
			w.lru = d.U64()
		}
	}
	c.tick = d.U64()
	c.hits = d.U64()
	c.misses = d.U64()
	return d.Err()
}

func (b *l2Bank) snapshotTo(e *snapshot.Encoder) {
	e.Int(b.capacity)
	e.U64(b.tick)
	e.U64(b.hits)
	e.U64(b.misses)
	keys := sortedKeys(b.lines)
	e.U32(uint32(len(keys)))
	for _, line := range keys {
		l := b.lines[line]
		e.U64(line)
		e.U64(l.value)
		e.Bool(l.dirty)
		e.U64(l.lru)
	}
}

func (b *l2Bank) restoreFrom(d *snapshot.Decoder) error {
	capacity := d.Int()
	if d.Err() == nil && capacity != b.capacity {
		d.Failf("L2 capacity mismatch: snapshot %d, target %d", capacity, b.capacity)
		return d.Err()
	}
	b.tick = d.U64()
	b.hits = d.U64()
	b.misses = d.U64()
	b.lines = make(map[uint64]*l2Line)
	n := d.Count(25)
	if d.Err() == nil && n > b.capacity {
		d.Failf("L2 bank holds %d lines, capacity %d", n, b.capacity)
		return d.Err()
	}
	for i := 0; i < n; i++ {
		line := d.U64()
		b.lines[line] = &l2Line{value: d.U64(), dirty: d.Bool(), lru: d.U64()}
	}
	return d.Err()
}
