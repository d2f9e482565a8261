package fullsys

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/snapshot"
)

// This file describes every piece of mutable full-system state to the
// checkpoint codec, one body per type, walked to encode and to decode.
// The walks validate structural invariants (state enums in range,
// endpoints inside the machine, map keys consistent) so a corrupted
// stream fails loudly instead of resuming a subtly wrong machine — and
// a machine that fails them while being written panics. All maps are
// walked in sorted key order, keeping the encoded bytes — and therefore
// golden snapshot files — deterministic.

// MsgCodec is a snapshot.PayloadCodec describing Msg packet payloads
// for the network-side snapshot. Tiles bounds endpoint validation.
type MsgCodec struct {
	Tiles int
}

// Payload implements snapshot.PayloadCodec.
func (mc MsgCodec) Payload(c *snapshot.Codec, payload *interface{}) {
	present := *payload != nil
	if c.Bool(&present); !present {
		return
	}
	var m Msg
	if !c.Decoding() {
		var ok bool
		if m, ok = (*payload).(Msg); !ok {
			panic(fmt.Sprintf("fullsys: packet payload is %T, not Msg", *payload))
		}
	}
	if m.state(c, mc.Tiles); c.Decoding() {
		*payload = m
	}
}

// state walks one message between tiles of a machine of the given size.
func (m *Msg) state(c *snapshot.Codec, tiles int) {
	snapshot.As8(c, &m.Type)
	c.U64(&m.Line)
	c.Int(&m.Src)
	c.Int(&m.Dst)
	c.U64(&m.Value)
	if m.Type >= numMsgTypes {
		c.Failf("message type %d out of range", m.Type)
	} else if m.Src < 0 || m.Src >= tiles || m.Dst < 0 || m.Dst >= tiles {
		c.Failf("message endpoints %d->%d outside %d tiles", m.Src, m.Dst, tiles)
	}
}

func (ev *sysEvent) state(c *snapshot.Codec, tiles int) {
	snapshot.As8(c, &ev.kind)
	ev.msg.state(c, tiles)
	if ev.kind >= numEvKinds {
		c.Failf("event kind %d out of range", ev.kind)
	}
}

// msgs walks a counted list of messages.
func msgs(c *snapshot.Codec, list *[]Msg, tiles int) {
	snapshot.Slice(c, list, 33, func(c *snapshot.Codec, m *Msg) { m.state(c, tiles) })
}

// State walks the complete system state: clock, counters, barrier
// occupancy, pending events, workload position, and every tile. The
// target of a decode is a freshly constructed system with the same
// configuration and workload shape.
func (s *System) State(c *snapshot.Codec) {
	tiles := s.cfg.Tiles
	c.Section("fullsys")
	snapshot.As64(c, &s.now)
	c.U64(&s.msgsSent)
	c.U64(&s.flitsSent)
	c.U64(&s.localMsgs)
	for i := range s.msgsByType {
		c.U64(&s.msgsByType[i])
	}
	snapshot.Map(c, &s.barrier, 16, func(c *snapshot.Codec, id *uint64, arrived *int) {
		c.U64(id)
		c.Int(arrived)
		if *arrived < 1 || *arrived >= tiles {
			c.Failf("barrier %d has %d arrivals, want 1..%d", *id, *arrived, tiles-1)
		}
	})
	s.events.State(c, func(c *snapshot.Codec, ev *sysEvent) { ev.state(c, tiles) })
	if st, ok := s.wl.(snapshot.Stater); c.Present(ok, "workload snapshot") {
		st.State(c)
	}
	for _, t := range s.tiles {
		if t.state(c); c.Err() != nil {
			return
		}
	}
	if c.Decoding() {
		s.rederive()
	}
}

func (t *Tile) state(c *snapshot.Codec) {
	c.Enter("tile", t.id)
	defer c.Leave()
	tiles := t.sys.cfg.Tiles

	// Core side.
	c.U8(&t.coreState)
	if t.coreState > coreHalted {
		c.Failf("core state %d out of range", t.coreState)
	}
	c.U64(&t.compute)
	snapshot.As8(c, &t.curOp.Kind)
	c.U64(&t.curOp.Addr)
	c.U64(&t.curOp.Arg)
	c.Bool(&t.opValid)
	snapshot.Slice(c, &t.storeBuf, 16, func(c *snapshot.Codec, se *storeEntry) {
		c.U64(&se.addr)
		c.U64(&se.value)
	})
	if len(t.storeBuf) > t.sys.cfg.StoreBuf {
		c.Failf("store buffer has %d entries, capacity %d", len(t.storeBuf), t.sys.cfg.StoreBuf)
	}
	c.Bool(&t.storeTxn)
	t.l1.state(c)
	snapshot.Map(c, &t.mshrs, 26, func(c *snapshot.Codec, line *uint64, mp **mshrEntry) {
		if c.Decoding() {
			*mp = &mshrEntry{}
		}
		m := *mp
		c.U64(line)
		c.U8(&m.kind)
		c.U64(&m.addr)
		c.U64(&m.arg)
		c.Bool(&m.inv)
		if m.kind > mshrPrefetch {
			c.Failf("MSHR kind %d out of range", m.kind)
		}
	})
	snapshot.Map(c, &t.wbBuf, 17, func(c *snapshot.Codec, line *uint64, wb *wbEntry) {
		c.U64(line)
		c.U64(&wb.value)
		c.Bool(&wb.dirty)
	})
	snapshot.Map(c, &t.pendingFwd, 12, func(c *snapshot.Codec, line *uint64, fwd *[]Msg) {
		c.U64(line)
		msgs(c, fwd, tiles)
	})
	c.Int(&t.prefetchOut)
	// What is written is what Stats reports: a sleeping tile's stall
	// debt is settled into the bytes, not into the tile.
	st := &t.stats
	if !c.Decoding() {
		settled := t.Stats()
		st = &settled
	}
	st.state(c)

	// Home side.
	snapshot.Map(c, &t.dir, 40, func(c *snapshot.Codec, line *uint64, dl **dirLine) {
		if c.Decoding() {
			*dl = &dirLine{}
		}
		(*dl).walk(c, tiles)
		*line = (*dl).line
	})
	t.l2.state(c)
	snapshot.Map(c, &t.victimBuf, 24, func(c *snapshot.Codec, line *uint64, vp **vbEntry) {
		if c.Decoding() {
			*vp = &vbEntry{}
		}
		c.U64(line)
		c.U64(&(*vp).value)
		c.Int(&(*vp).outstanding)
	})

	// Memory-controller side.
	if c.Present(t.mem != nil, "memory-controller") {
		snapshot.Map(c, &t.mem, 16, func(c *snapshot.Codec, line, value *uint64) {
			c.U64(line)
			c.U64(value)
		})
	}
	snapshot.As64(c, &t.mcNextFree)
	if c.Present(t.memOracle != nil, "memory oracle") {
		t.memOracle.(dram.OracleStater).State(c, func(c *snapshot.Codec, meta *interface{}) {
			var m Msg
			if !c.Decoding() {
				m = (*meta).(Msg)
			}
			m.state(c, tiles)
			if m.Type != MemRead && m.Type != MemWrite {
				c.Failf("memory oracle metadata has non-memory message %v", m)
			}
			if c.Decoding() {
				*meta = m
			}
		})
	}
}

func (st *tileStats) state(c *snapshot.Codec) {
	c.U64(&st.Retired)
	c.U64(&st.Loads)
	c.U64(&st.Stores)
	c.U64(&st.Atomics)
	c.U64(&st.Barriers)
	c.U64(&st.LoadStall)
	c.U64(&st.BarStall)
	c.U64(&st.SBStall)
	c.U64(&st.Compute)
	snapshot.As64(c, &st.HaltedAt)
	c.U64(&st.PrefIssued)
	c.U64(&st.PrefUseful)
}

// walk is the directory entry's state description (state is a field):
// its line address, which is the map key, first.
func (dl *dirLine) walk(c *snapshot.Codec, tiles int) {
	c.U64(&dl.line)
	c.U8(&dl.state)
	if dl.state > dirEM {
		c.Failf("directory state %d out of range", dl.state)
	}
	snapshot.As64(c, &dl.owner)
	snapshot.Slice(c, &dl.sharers, 8, func(c *snapshot.Codec, sh *int32) { snapshot.As64(c, sh) })
	c.Bool(&dl.busy)
	msgs(c, &dl.waitq, tiles)
	txn := &dl.txn
	c.U8(&txn.kind)
	if txn.kind > txnFwdM {
		c.Failf("directory transaction kind %d out of range", txn.kind)
	}
	snapshot.As64(c, &txn.req)
	c.Int(&txn.acks)
	c.Bool(&txn.needData)
	c.Bool(&txn.haveData)
	c.U64(&txn.value)
	c.Bool(&txn.reqWasSharer)
}

// State walks a scripted workload's per-core position and observation
// log (the op lists themselves are construction inputs).
func (s *Script) State(c *snapshot.Codec) {
	c.Section("script")
	snapshot.Match(c, snapshot.As32[int], len(s.pos), "script cores")
	for i := range s.pos {
		if c.Err() != nil {
			return
		}
		c.Int(&s.pos[i])
		if s.pos[i] < 0 || s.pos[i] > len(s.Ops[i]) {
			c.Failf("core %d script position %d outside 0..%d", i, s.pos[i], len(s.Ops[i]))
		}
		snapshot.Slice(c, &s.observed[i], 8, func(c *snapshot.Codec, v *uint64) { c.U64(v) })
	}
}

func (l1 *l1Cache) state(c *snapshot.Codec) {
	ways := 0
	if len(l1.sets) > 0 {
		ways = len(l1.sets[0])
	}
	snapshot.Match(c, snapshot.As32[int], len(l1.sets), "L1 sets")
	snapshot.Match(c, snapshot.As32[int], ways, "L1 ways")
	if c.Err() != nil {
		return
	}
	for _, set := range l1.sets {
		for i := range set {
			w := &set[i]
			c.U64(&w.line)
			c.U8(&w.state)
			if w.state > l1Modified {
				c.Failf("L1 state %d out of range", w.state)
			}
			c.Bool(&w.pinned)
			c.Bool(&w.prefetched)
			c.U64(&w.value)
			c.U64(&w.lru)
		}
	}
	c.U64(&l1.tick)
	c.U64(&l1.hits)
	c.U64(&l1.misses)
}

func (b *l2Bank) state(c *snapshot.Codec) {
	snapshot.Match(c, (*snapshot.Codec).Int, b.capacity, "L2 capacity")
	c.U64(&b.tick)
	c.U64(&b.hits)
	c.U64(&b.misses)
	snapshot.Map(c, &b.lines, 25, func(c *snapshot.Codec, line *uint64, lp **l2Line) {
		if c.Decoding() {
			*lp = &l2Line{}
		}
		l := *lp
		c.U64(line)
		c.U64(&l.value)
		c.Bool(&l.dirty)
		c.U64(&l.lru)
	})
	if len(b.lines) > b.capacity {
		c.Failf("L2 bank holds %d lines, capacity %d", len(b.lines), b.capacity)
	}
}
