package fullsys

import (
	"slices"

	"repro/internal/dram"
	"repro/internal/snapshot"
)

// This file describes every piece of mutable full-system state to the
// checkpoint codec, one body per type, walked to encode and to decode.
// The walks validate structural invariants (state enums in range,
// endpoints inside the machine, map keys consistent) so a corrupted
// stream fails loudly instead of resuming a subtly wrong machine — and
// a machine that fails them while being written panics. Every table
// keyed by line is walked as the map it replaced, in ascending line
// order, keeping the encoded bytes — and therefore golden snapshot
// files — deterministic.

// State walks one message between tiles of a machine of the given size.
func (m *Msg) State(c *snapshot.Codec, tiles int) {
	snapshot.As8(c, &m.Type)
	c.U64(&m.Line)
	c.Int(&m.Src)
	c.Int(&m.Dst)
	c.U64(&m.Value)
	if !m.Type.Valid() {
		c.Failf("message type %d out of range", m.Type)
	} else if m.Src < 0 || m.Src >= tiles || m.Dst < 0 || m.Dst >= tiles {
		c.Failf("message endpoints %d->%d outside %d tiles", m.Src, m.Dst, tiles)
	}
}

func (ev *sysEvent) state(c *snapshot.Codec, tiles int) {
	snapshot.As8(c, &ev.kind)
	ev.msg.State(c, tiles)
	if ev.kind >= numEvKinds {
		c.Failf("event kind %d out of range", ev.kind)
	}
}

// msgs walks a counted list of messages.
func msgs(c *snapshot.Codec, list *[]Msg, tiles int) {
	snapshot.Slice(c, list, 33, func(c *snapshot.Codec, m *Msg) { m.State(c, tiles) })
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
	t.missBuffers(c)
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
	if c.Decoding() {
		t.waitq = make(map[uint64][]Msg)
		t.sharers = sharerPool{}
	}
	walkTable(c, &t.dir, 40, t.walkDir)
	t.l2.state(c, t)
	t.walkVictims(c)

	// Memory-controller side.
	if c.Present(t.mem != nil, "memory-controller") {
		snapshot.Map(c, &t.mem, 16, func(c *snapshot.Codec, line, value *uint64) {
			c.U64(line)
			c.U64(value)
		})
	}
	snapshot.As64(c, &t.mcNextFree)
	if c.Present(t.memOracle != nil, "memory oracle") {
		t.memOracle.(dram.OracleStater).State(c, uint64(tiles))
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

// missBuffers walks the MSHRs, the writeback buffer and the stalled
// forwards, each as the map from line it replaced.
func (t *Tile) missBuffers(c *snapshot.Codec) {
	walkLines(c, &t.mshrs, 26, func(m *mshrEntry) uint64 { return m.line }, func(c *snapshot.Codec, m *mshrEntry) {
		c.U64(&m.line)
		c.U8(&m.kind)
		c.U64(&m.addr)
		c.U64(&m.arg)
		c.Bool(&m.inv)
		if m.kind > mshrPrefetch {
			c.Failf("MSHR kind %d out of range", m.kind)
		}
	})
	walkLines(c, &t.wbBuf, 17, func(wb *wbEntry) uint64 { return wb.line }, func(c *snapshot.Codec, wb *wbEntry) {
		c.U64(&wb.line)
		c.U64(&wb.value)
		c.Bool(&wb.dirty)
	})
	t.walkPendingFwd(c)
}

// walkVictims walks the victim buffer as the map from line it replaced.
func (t *Tile) walkVictims(c *snapshot.Codec) {
	walkLines(c, &t.victimBuf, 24, func(vb *vbEntry) uint64 { return vb.line }, func(c *snapshot.Codec, vb *vbEntry) {
		t.homeLine(c, &vb.line, "victim-buffer")
		c.U64(&vb.value)
		c.Int(&vb.outstanding)
	})
}

// walkPendingFwd walks the stalled forwards as the map from line to
// message list they once were: a count of lines, then each line in
// ascending order with its messages in arrival order. Decoding keeps
// the last list of a line the input repeats, and an empty list as an
// entry holding no request.
func (t *Tile) walkPendingFwd(c *snapshot.Codec) {
	tiles := t.sys.cfg.Tiles
	if !c.Decoding() {
		var lines []uint64
		for _, f := range t.pendingFwd {
			if !slices.Contains(lines, f.line) {
				lines = append(lines, f.line)
			}
		}
		slices.Sort(lines)
		c.Len(len(lines), 12)
		for _, line := range lines {
			var list []Msg
			for _, f := range t.pendingFwd {
				if f.line == line && f.msg.Type != noFwd {
					list = append(list, f.msg)
				}
			}
			c.U64(&line)
			msgs(c, &list, tiles)
		}
		return
	}
	n := c.Len(0, 12)
	t.pendingFwd = t.pendingFwd[:0]
	for i := 0; i < n; i++ {
		var line uint64
		var list []Msg
		c.U64(&line)
		if msgs(c, &list, tiles); c.Err() != nil {
			return
		}
		t.pendingFwd = slices.DeleteFunc(t.pendingFwd, func(f fwdEntry) bool { return f.line == line })
		if len(list) == 0 {
			list = []Msg{{Type: noFwd}}
		}
		for _, m := range list {
			t.pendingFwd = append(t.pendingFwd, fwdEntry{line: line, msg: m})
		}
	}
}

// homeLine walks the key of a home-side table, which must be a line
// homed at this tile.
func (t *Tile) homeLine(c *snapshot.Codec, line *uint64, what string) {
	c.U64(line)
	if home := t.sys.cfg.HomeOf(*line); home != t.id {
		c.Failf("%s line %#x is homed at tile %d", what, *line, home)
	}
}

// tileID walks a tile number held in an int32, checking the full
// stored width against [lo, tiles).
func tileID(c *snapshot.Codec, id *int32, lo, tiles int, what string) {
	v := int64(*id)
	snapshot.As64(c, &v)
	if v < int64(lo) || v >= int64(tiles) {
		c.Failf("%s %d outside [%d, %d)", what, v, lo, tiles)
	}
	*id = int32(v)
}

// walkDir is a directory entry's state description: its line, the map
// key, first, then the record with its sharer list and request queue
// in the places the record once held them.
func (t *Tile) walkDir(c *snapshot.Codec, line *uint64, dl *dirLine) {
	tiles := t.sys.cfg.Tiles
	t.homeLine(c, line, "directory")
	c.U8(&dl.state)
	if dl.state > dirEM {
		c.Failf("directory state %d out of range", dl.state)
	}
	tileID(c, &dl.owner, -1, tiles, "directory owner")
	sharers := t.sharers.list(dl.sharers)
	snapshot.Slice(c, &sharers, 8, func(c *snapshot.Codec, sh *int32) { tileID(c, sh, 0, tiles, "sharer") })
	c.Bool(&dl.busy)
	queue := t.waitq[*line]
	msgs(c, &queue, tiles)
	if c.Decoding() {
		if len(sharers) > 0 {
			dl.sharers = t.sharers.issue(*line)
			t.sharers.lists[dl.sharers-1] = sharers
		}
		if len(queue) > 0 {
			t.waitq[*line] = queue
		}
	}
	txn := &dl.txn
	c.U8(&txn.kind)
	if txn.kind > txnFwdM {
		c.Failf("directory transaction kind %d out of range", txn.kind)
	}
	tileID(c, &txn.req, 0, tiles, "transaction requester")
	acks := int(txn.acks)
	c.Int(&acks)
	txn.acks = int32(acks)
	c.Bool(&txn.needData)
	c.Bool(&txn.haveData)
	c.U64(&dl.value)
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

// state walks the ways the L1 holds — those whose flag byte is not
// zero — as a count, then one entry each in way order: index, line,
// value, lru, flag byte. Decoding clears every way first: an empty
// way's line, value and lru are never read before install writes them.
func (l1 *l1Cache) state(c *snapshot.Codec) {
	snapshot.Match(c, snapshot.As32[int], len(l1.flags)/l1.ways, "L1 sets")
	snapshot.Match(c, snapshot.As32[int], l1.ways, "L1 ways")
	if c.Err() != nil {
		return
	}
	held := 0
	for _, f := range l1.flags {
		if f != 0 {
			held++
		}
	}
	n := c.Len(held, 29)
	if c.Decoding() {
		clear(l1.line)
		clear(l1.value)
		clear(l1.lru)
		clear(l1.flags)
	}
	w := -1
	for i := 0; i < n && c.Err() == nil; i++ {
		next := w + 1
		for !c.Decoding() && l1.flags[next] == 0 {
			next++
		}
		snapshot.As32(c, &next)
		if next <= w || next >= len(l1.flags) {
			c.Failf("L1 way %d after way %d, want ascending below %d", next, w, len(l1.flags))
			return
		}
		w = next
		c.U64(&l1.line[w])
		c.U64(&l1.value[w])
		c.U64(&l1.lru[w])
		c.U8(&l1.flags[w])
		if f := l1.flags[w]; f == 0 || f&^l1FlagBits != 0 {
			c.Failf("L1 flag byte %#x out of range", f)
		} else if f&l1StateBits != l1Invalid && int(l1.line[w]&l1.setMask) != w/l1.ways {
			c.Failf("L1 line %#x in set %d", l1.line[w], w/l1.ways)
		}
	}
	c.U64(&l1.tick)
	c.U64(&l1.hits)
	c.U64(&l1.misses)
}

func (b *l2Bank) state(c *snapshot.Codec, home *Tile) {
	snapshot.Match(c, (*snapshot.Codec).Int, b.capacity, "L2 capacity")
	c.U64(&b.tick)
	c.U64(&b.hits)
	c.U64(&b.misses)
	walkTable(c, &b.lines, 25, func(c *snapshot.Codec, line *uint64, l *l2Line) {
		home.homeLine(c, line, "L2")
		c.U64(&l.value)
		c.Bool(&l.dirty)
		c.U64(&l.lru)
	})
	if b.lines.n > b.capacity {
		c.Failf("L2 bank holds %d lines, capacity %d", b.lines.n, b.capacity)
	}
}
