package fullsys

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// mapL2 is the map-keyed L2 bank that l2Bank replaced, kept as the
// reference its line table is fuzzed against: a map from line to a
// heap record, the victim found by a scan for the smallest (lru,
// line).
type mapL2 struct {
	capacity int
	lines    map[uint64]*mapL2Line
	tick     uint64
}

type mapL2Line struct {
	value uint64
	dirty bool
	lru   uint64
}

func (b *mapL2) get(line uint64) *mapL2Line {
	l := b.lines[line]
	if l != nil {
		b.tick++
		l.lru = b.tick
	}
	return l
}

func (b *mapL2) put(line, value uint64, dirty bool) (uint64, uint64, bool) {
	if l := b.lines[line]; l != nil {
		b.tick++
		l.value, l.dirty, l.lru = value, l.dirty || dirty, b.tick
		return 0, 0, false
	}
	var evLine, evValue uint64
	var wb bool
	if len(b.lines) >= b.capacity {
		var victim uint64
		oldest := ^uint64(0)
		keys := make([]uint64, 0, len(b.lines))
		for ln := range b.lines {
			keys = append(keys, ln)
		}
		slices.Sort(keys)
		for _, ln := range keys {
			if l := b.lines[ln]; l.lru < oldest {
				oldest, victim = l.lru, ln
			}
		}
		v := b.lines[victim]
		delete(b.lines, victim)
		if v.dirty {
			evLine, evValue, wb = victim, v.value, true
		}
	}
	b.tick++
	b.lines[line] = &mapL2Line{value: value, dirty: dirty, lru: b.tick}
	return evLine, evValue, wb
}

// state writes the reference as l2Bank.state writes a bank of a
// one-tile machine, through snapshot.Map, which the table walk
// replaced. It only encodes.
func (b *mapL2) state(c *snapshot.Codec) {
	snapshot.Match(c, (*snapshot.Codec).Int, b.capacity, "L2 capacity")
	c.U64(&b.tick)
	var hits, misses uint64
	c.U64(&hits)
	c.U64(&misses)
	snapshot.Map(c, &b.lines, 25, func(c *snapshot.Codec, line *uint64, l **mapL2Line) {
		c.U64(line)
		c.U64(&(*l).value)
		c.Bool(&(*l).dirty)
		c.U64(&(*l).lru)
	})
}

// mapBuffers is a tile's MSHRs, writeback buffer, stalled forwards and
// victim buffer as the maps the per-tile slices replaced, walked by
// the map walks Tile.state used (refMSHR, refWB, refFwd, refVictim).
// The records' line fields are unused: the map key is the line.
type mapBuffers struct {
	mshrs      map[uint64]*mshrEntry
	wbBuf      map[uint64]wbEntry
	pendingFwd map[uint64][]Msg
	victimBuf  map[uint64]*vbEntry
}

func newMapBuffers() *mapBuffers {
	return &mapBuffers{map[uint64]*mshrEntry{}, map[uint64]wbEntry{}, map[uint64][]Msg{}, map[uint64]*vbEntry{}}
}

func refMSHR(c *snapshot.Codec, line *uint64, mp **mshrEntry) {
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
}

func refWB(c *snapshot.Codec, line *uint64, wb *wbEntry) {
	c.U64(line)
	c.U64(&wb.value)
	c.Bool(&wb.dirty)
}

func refFwd(c *snapshot.Codec, line *uint64, fwd *[]Msg) {
	c.U64(line)
	msgs(c, fwd, 1)
}

func refVictim(home *Tile) func(*snapshot.Codec, *uint64, **vbEntry) {
	return func(c *snapshot.Codec, line *uint64, vp **vbEntry) {
		if c.Decoding() {
			*vp = &vbEntry{}
		}
		home.homeLine(c, line, "victim-buffer")
		c.U64(&(*vp).value)
		c.Int(&(*vp).outstanding)
	}
}

// state walks the reference as Tile.missBuffers and Tile.walkVictims
// walk the tile's slices.
func (r *mapBuffers) state(c *snapshot.Codec, home *Tile) {
	snapshot.Map(c, &r.mshrs, 26, refMSHR)
	snapshot.Map(c, &r.wbBuf, 17, refWB)
	snapshot.Map(c, &r.pendingFwd, 12, refFwd)
	snapshot.Map(c, &r.victimBuf, 24, refVictim(home))
}

// buffers walks home's slices in the reference's layout.
func buffers(c *snapshot.Codec, home *Tile) {
	home.missBuffers(c)
	home.walkVictims(c)
}

// rawBuffers is a raw entry stream per buffer, in the map layout but
// with repeated lines, disorder and empty forward lists allowed, that
// both decoders must read alike.
type rawBuffers struct {
	mshrLines, wbLines, fwdLines, vbLines []uint64
	mshrs                                 []*mshrEntry
	wbs                                   []wbEntry
	fwds                                  [][]Msg
	vbs                                   []*vbEntry
}

func rawMap[V any](c *snapshot.Codec, lines []uint64, vals []V, walk func(*snapshot.Codec, *uint64, *V)) {
	c.Len(len(lines), 1)
	for i := range lines {
		line, v := lines[i], vals[i]
		walk(c, &line, &v)
	}
}

func (r *rawBuffers) blob(home *Tile) []byte {
	return encodeWith(func(c *snapshot.Codec) {
		rawMap(c, r.mshrLines, r.mshrs, refMSHR)
		rawMap(c, r.wbLines, r.wbs, refWB)
		rawMap(c, r.fwdLines, r.fwds, refFwd)
		rawMap(c, r.vbLines, r.vbs, refVictim(home))
	})
}

// walkDirRecord is the entry walk the directory programs capture both
// sides with: the key, then the record's fields.
func walkDirRecord(c *snapshot.Codec, line *uint64, d *dirLine) {
	c.U64(line)
	c.U8(&d.state)
	tileID(c, &d.owner, -1, 1<<20, "owner")
	c.U64(&d.value)
}

func walkRefDir(c *snapshot.Codec, line *uint64, d **dirLine) { walkDirRecord(c, line, *d) }

// tableLine draws a line from a small universe that packs probe runs
// and wraps the probe array: low lines, a stride that shares a home
// slot under the multiplicative hash, and the largest lines, emptyLine
// itself included.
func tableLine(b byte) uint64 {
	switch k := uint64(b % 32); {
	case k < 12:
		return k
	case k < 24:
		return (k - 12) << 40
	default:
		return emptyLine - (k - 24)
	}
}

// decodeStream builds a counted entry stream in the map layout with
// the given (line, value) entries, repeats and disorder allowed.
func decodeStream(entries [][2]uint64) []byte {
	return encodeWith(func(c *snapshot.Codec) {
		c.Len(len(entries), 1)
		for _, e := range entries {
			line, d := e[0], dirLine{state: uint8(e[1] % 3), owner: int32(e[1]%5) - 1, value: e[1]}
			walkDirRecord(c, &line, &d)
		}
	})
}

// checkTablesProgram runs one program against the line tables, the
// L2 bank and a tile's buffers on one side and the maps they replaced
// on the other. Each byte pair of prog is an operation and a line:
// directory insert-or-update and lookup; L2 get, put (clean or dirty)
// and drop; MSHR allocate, mark and complete; writeback hold and
// release; victim hold and acknowledgement; forward stall and replay;
// a capture of everything, from which the table side resumes; and a
// resume of the buffers, on both sides, from raw streams of the
// entries made so far. Every result, count and capture must agree. At
// the end, both decoders must read a raw directory stream alike.
func checkTablesProgram(capacity uint8, prog []byte) error {
	sys, err := New(DefaultConfig(1), NewScript(make([][]Op, 1)), func(Msg, sim.Cycle) {})
	if err != nil {
		return err
	}
	home := sys.Tile(0)
	capN := 1 + int(capacity%24)
	dir, refDir := &lineTable[dirLine]{}, map[uint64]*dirLine{}
	bank, refBank := newL2(capN), &mapL2{capacity: capN, lines: map[uint64]*mapL2Line{}}
	ref := newMapBuffers()
	var stream [][2]uint64
	var raw rawBuffers
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, line, arg := prog[pc]%16, tableLine(prog[pc+1]), uint64(prog[pc+1])
		switch op {
		case 0: // directory entry created or updated
			i := dir.find(line)
			if i < 0 {
				i = dir.insert(line)
				*dir.rec(i) = dirLine{owner: -1}
			}
			if refDir[line] == nil {
				refDir[line] = &dirLine{owner: -1}
			}
			d, r := dir.rec(i), refDir[line]
			d.state, r.state = uint8(pc%3), uint8(pc%3)
			d.value, r.value = uint64(pc), uint64(pc)
			stream = append(stream, [2]uint64{line, uint64(pc)})
		case 1: // directory lookup
			i := dir.find(line)
			r := refDir[line]
			if (i >= 0) != (r != nil) || i >= 0 && *dir.rec(i) != *r {
				return fmt.Errorf("op %d: directory lookup of %#x disagrees", pc/2, line)
			}
		case 2: // L2 get
			l, r := bank.get(line), refBank.get(line)
			if (l != nil) != (r != nil) || l != nil && (l.value != r.value || l.dirty != r.dirty || l.lru != r.lru) {
				return fmt.Errorf("op %d: L2 get of %#x disagrees", pc/2, line)
			}
		case 3, 4: // L2 put, clean or dirty
			gl, gv, gw := bank.put(line, arg, op == 4)
			rl, rv, rw := refBank.put(line, arg, op == 4)
			if gl != rl || gv != rv || gw != rw {
				return fmt.Errorf("op %d: L2 put of %#x evicted (%#x, %d, %v), reference (%#x, %d, %v)", pc/2, line, gl, gv, gw, rl, rv, rw)
			}
		case 5: // L2 drop
			bank.drop(line)
			delete(refBank.lines, line)
		case 6: // MSHR allocated unless the line has one
			m := mshrEntry{line: line, kind: uint8(arg % 4), addr: line << 6, arg: arg}
			if home.mshr(line) < 0 {
				home.mshrs = append(home.mshrs, m)
				ref.mshrs[line] = &m
			}
			raw.mshrLines, raw.mshrs = append(raw.mshrLines, line), append(raw.mshrs, &m)
		case 7: // MSHR marked by an Inv
			if i := home.mshr(line); i >= 0 {
				home.mshrs[i].inv = true
			}
			if r := ref.mshrs[line]; r != nil {
				r.inv = true
			}
		case 8: // MSHR completed, or everything captured
			if i := home.mshr(line); i >= 0 {
				home.mshrs = deleteAt(home.mshrs, i)
			}
			delete(ref.mshrs, line)
			if arg%4 != 0 {
				break
			}
			if err := compareCaptures(pc/2, home, dir, refDir, bank, refBank, ref); err != nil {
				return err
			}
			// Resume the table side from its capture: it must run on
			// as the original would.
			blob := encodeWith(func(c *snapshot.Codec) { bank.state(c, home); buffers(c, home) })
			fresh := newL2(capN)
			if err := snapshot.Open(blob, 1, func(c *snapshot.Codec) error { fresh.state(c, home); buffers(c, home); return c.Err() }); err != nil {
				return fmt.Errorf("op %d: capture does not decode: %v", pc/2, err)
			}
			bank = fresh
		case 9: // writeback held, replacing the line's entry
			wb := wbEntry{line: line, value: arg, dirty: arg%2 == 1}
			home.holdWriteback(wb)
			ref.wbBuf[line] = wb
			raw.wbLines, raw.wbs = append(raw.wbLines, line), append(raw.wbs, wb)
		case 10: // writeback acknowledged
			if i := home.writeback(line); i >= 0 {
				home.wbBuf = deleteAt(home.wbBuf, i)
			}
			delete(ref.wbBuf, line)
		case 11: // dirty victim held, or re-evicted
			home.holdVictim(line, arg)
			v := ref.victimBuf[line]
			if v == nil {
				v = &vbEntry{}
				ref.victimBuf[line] = v
			}
			v.value = arg
			v.outstanding++
			raw.vbLines, raw.vbs = append(raw.vbLines, line), append(raw.vbs, &vbEntry{value: arg, outstanding: int(arg % 3)})
		case 12: // victim acknowledged, as homeResponse takes a MemWAck
			if i := home.victim(line); i >= 0 {
				if home.victimBuf[i].outstanding--; home.victimBuf[i].outstanding == 0 {
					home.victimBuf = deleteAt(home.victimBuf, i)
				}
			}
			if v := ref.victimBuf[line]; v != nil {
				if v.outstanding--; v.outstanding == 0 {
					delete(ref.victimBuf, line)
				}
			}
		case 13: // forward stalled if the line has a miss in flight
			m := Msg{Type: FwdGetS + MsgType(arg%2), Line: line, Value: uint64(pc)}
			want := ref.mshrs[line] != nil
			if want {
				ref.pendingFwd[line] = append(ref.pendingFwd[line], m)
			}
			if got := home.stallFwd(m); got != want {
				return fmt.Errorf("op %d: forward on %#x stalled %v, reference %v", pc/2, line, got, want)
			}
			list := make([]Msg, arg%3) // an empty list too
			for i := range list {
				list[i] = m
			}
			raw.fwdLines, raw.fwds = append(raw.fwdLines, line), append(raw.fwds, list)
		case 14: // stalled forwards replayed, as replayFwds takes them
			want := ref.pendingFwd[line]
			if len(want) > 0 {
				delete(ref.pendingFwd, line)
			}
			if n := home.stalledFwds(line); n != len(want) {
				return fmt.Errorf("op %d: %d forwards stalled on %#x, reference %d", pc/2, n, line, len(want))
			}
			for i := range want {
				if m := home.unstallFwd(line); m != want[i] {
					return fmt.Errorf("op %d: forward %d on %#x is %v, reference %v", pc/2, i, line, m, want[i])
				}
			}
		case 15: // both sides' buffers resumed from the raw streams
			blob := raw.blob(home)
			errGot := snapshot.Open(blob, 1, func(c *snapshot.Codec) error { buffers(c, home); return c.Err() })
			errRef := snapshot.Open(blob, 1, func(c *snapshot.Codec) error { ref.state(c, home); return c.Err() })
			if (errGot == nil) != (errRef == nil) {
				return fmt.Errorf("op %d: raw buffers: slice decode %v, map decode %v", pc/2, errGot, errRef)
			}
			if errGot != nil {
				home.mshrs, home.wbBuf, home.pendingFwd, home.victimBuf = nil, nil, nil, nil
				ref = newMapBuffers()
			}
			raw = rawBuffers{}
		}
		if dir.n != len(refDir) || bank.lines.n != len(refBank.lines) || bank.tick != refBank.tick || len(home.mshrs) != len(ref.mshrs) ||
			len(home.wbBuf) != len(ref.wbBuf) || len(home.victimBuf) != len(ref.victimBuf) {
			return fmt.Errorf("op %d: sizes %d/%d/%d/%d/%d, reference %d/%d/%d/%d/%d", pc/2,
				dir.n, bank.lines.n, len(home.mshrs), len(home.wbBuf), len(home.victimBuf),
				len(refDir), len(refBank.lines), len(ref.mshrs), len(ref.wbBuf), len(ref.victimBuf))
		}
	}
	if err := compareCaptures(len(prog)/2, home, dir, refDir, bank, refBank, ref); err != nil {
		return err
	}
	// Repeated keys overwrite and the count is of distinct lines, in
	// both decoders.
	rawDir := decodeStream(stream)
	var got lineTable[dirLine]
	var refGot map[uint64]*dirLine
	errGot := snapshot.Open(rawDir, 1, func(c *snapshot.Codec) error { walkTable(c, &got, 1, walkDirRecord); return c.Err() })
	errRef := snapshot.Open(rawDir, 1, func(c *snapshot.Codec) error {
		snapshot.Map(c, &refGot, 1, func(c *snapshot.Codec, line *uint64, d **dirLine) {
			*d = &dirLine{}
			walkDirRecord(c, line, *d)
		})
		return c.Err()
	})
	if (errGot == nil) != (errRef == nil) {
		return fmt.Errorf("raw stream: table decode %v, map decode %v", errGot, errRef)
	}
	if errGot == nil {
		g := encodeWith(func(c *snapshot.Codec) { walkTable(c, &got, 1, walkDirRecord) })
		r := encodeWith(func(c *snapshot.Codec) { snapshot.Map(c, &refGot, 1, walkRefDir) })
		if !bytes.Equal(g, r) {
			return fmt.Errorf("raw stream of %d entries decodes to different tables", len(stream))
		}
	}
	return nil
}

// compareCaptures requires each table and buffer to encode as the map
// it replaced.
func compareCaptures(op int, home *Tile, dir *lineTable[dirLine], refDir map[uint64]*dirLine,
	bank *l2Bank, refBank *mapL2, ref *mapBuffers) error {
	for _, pair := range []struct {
		what     string
		got, ref func(*snapshot.Codec)
	}{
		{"directory", func(c *snapshot.Codec) { walkTable(c, dir, 1, walkDirRecord) },
			func(c *snapshot.Codec) { snapshot.Map(c, &refDir, 1, walkRefDir) }},
		{"L2", func(c *snapshot.Codec) { bank.state(c, home) }, refBank.state},
		{"buffer", func(c *snapshot.Codec) { buffers(c, home) }, func(c *snapshot.Codec) { ref.state(c, home) }},
	} {
		if g, r := encodeWith(pair.got), encodeWith(pair.ref); !bytes.Equal(g, r) {
			return fmt.Errorf("op %d: %s capture differs from the map it replaced", op, pair.what)
		}
	}
	return nil
}

func TestTablesMatchMaps(t *testing.T) {
	prog := make([]byte, 6000)
	for capacity := 0; capacity < 24; capacity += 3 {
		x := uint32(capacity + 7)
		for i := range prog {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			prog[i] = byte(x)
		}
		if err := checkTablesProgram(uint8(capacity), prog); err != nil {
			t.Fatalf("capacity %d: %v", 1+capacity, err)
		}
	}
}

func FuzzDirectoryEquivalence(f *testing.F) {
	f.Add(uint8(2), []byte{0, 1, 0, 31, 1, 1, 3, 2, 4, 3, 3, 30, 2, 2, 8, 0})
	f.Add(uint8(0), []byte{4, 24, 4, 31, 2, 24, 5, 31, 6, 12, 7, 12, 8, 4, 0, 31})
	f.Fuzz(func(t *testing.T, capacity uint8, prog []byte) {
		if err := checkTablesProgram(capacity, prog); err != nil {
			t.Fatal(err)
		}
	})
}

// TestTableOperationsAllocateNothing: on warm tables — grown to hold
// what they hold, buffers with room — a directory lookup and insert,
// an L2 hit, update and evicting fill, and an MSHR allocate, lookup
// and completion allocate nothing: no record lives on the heap.
func TestTableOperationsAllocateNothing(t *testing.T) {
	sys, err := New(DefaultConfig(1), NewScript(make([][]Op, 1)), func(Msg, sim.Cycle) {})
	if err != nil {
		t.Fatal(err)
	}
	tile := sys.Tile(0)
	const lines = 64
	for line := uint64(0); line < 2*lines; line++ {
		tile.dirLineOf(line)
	}
	tile.l2 = newL2(lines)
	for line := uint64(0); line < lines; line++ {
		tile.l2.put(line, line, line%2 == 0)
	}
	tile.mshrs = make([]mshrEntry, 0, 4)
	next := uint64(lines)
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"directory", func() {
			tile.dirLineOf(next % (2 * lines)).state = dirS
		}},
		{"L2", func() {
			tile.l2.get(next % lines)
			tile.l2.put(next%lines, next, false)
			tile.l2.put(next, next, true) // evicts: the bank is full
		}},
		{"MSHR", func() {
			tile.mshrs = append(tile.mshrs, mshrEntry{line: next, kind: mshrLoad})
			if i := tile.mshr(next); i >= 0 && !tile.lineBusy(next+1) {
				tile.mshrs = deleteAt(tile.mshrs, i)
			}
		}},
	} {
		if allocs := testing.AllocsPerRun(200, func() { tc.op(); next++ }); allocs != 0 {
			t.Errorf("%s operations allocate %.1f times each", tc.name, allocs)
		}
	}
}
