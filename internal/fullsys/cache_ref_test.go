package fullsys

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/snapshot"
)

// aosL1 is the array-of-structs L1 that l1Cache replaced, kept as the
// reference the tag-major arrays are fuzzed against: a slice of ways
// per set, each way one struct, methods returning way pointers.
type aosL1 struct {
	sets    [][]aosWay
	setMask uint64 //simlint:derived recomputed from the set count at construction; decode matches the geometry
	tick    uint64

	hits, misses uint64
}

type aosWay struct {
	line       uint64
	state      uint8
	pinned     bool
	prefetched bool
	value      uint64
	lru        uint64
}

func newAosL1(sets, ways int) *aosL1 {
	c := &aosL1{sets: make([][]aosWay, sets), setMask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]aosWay, ways)
	}
	return c
}

func (c *aosL1) set(line uint64) []aosWay { return c.sets[line&c.setMask] }

func (c *aosL1) lookup(line uint64) *aosWay {
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != l1Invalid && w.line == line {
			c.tick++
			w.lru = c.tick
			return w
		}
	}
	return nil
}

func (c *aosL1) probe(line uint64) *aosWay {
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != l1Invalid && w.line == line {
			return w
		}
	}
	return nil
}

func (c *aosL1) victim(line uint64) *aosWay {
	set := c.set(line)
	var lru *aosWay
	for i := range set {
		w := &set[i]
		if w.state == l1Invalid {
			return w
		}
		if w.pinned {
			continue
		}
		if lru == nil || w.lru < lru.lru {
			lru = w
		}
	}
	return lru
}

func (c *aosL1) install(w *aosWay, line uint64, state uint8, value uint64) {
	c.tick++
	*w = aosWay{line: line, state: state, value: value, lru: c.tick}
}

// index is the tag-major index of a way (-1 for nil).
func (c *aosL1) index(w *aosWay) int {
	for s, set := range c.sets {
		for i := range set {
			if &set[i] == w {
				return s*len(set) + i
			}
		}
	}
	return -1
}

// state writes the reference in the checkpoint layout: the held ways
// (any state or flag set) as a count, then index, line, value, lru and
// flag byte each. It only encodes.
func (c *aosL1) state(cd *snapshot.Codec) {
	snapshot.Match(cd, snapshot.As32[int], len(c.sets), "L1 sets")
	snapshot.Match(cd, snapshot.As32[int], len(c.sets[0]), "L1 ways")
	type entry struct {
		index int
		way   *aosWay
		flags uint8
	}
	var held []entry
	for s, set := range c.sets {
		for i := range set {
			w := &set[i]
			f := w.state
			if w.pinned {
				f |= l1Pinned
			}
			if w.prefetched {
				f |= l1Prefetched
			}
			if f != 0 {
				held = append(held, entry{s*len(set) + i, w, f})
			}
		}
	}
	snapshot.Slice(cd, &held, 29, func(cd *snapshot.Codec, e *entry) {
		snapshot.As32(cd, &e.index)
		cd.U64(&e.way.line)
		cd.U64(&e.way.value)
		cd.U64(&e.way.lru)
		cd.U8(&e.flags)
	})
	cd.U64(&c.tick)
	cd.U64(&c.hits)
	cd.U64(&c.misses)
}

func encodeWith(walk func(*snapshot.Codec)) []byte {
	blob, _ := snapshot.Seal(1, func(c *snapshot.Codec) error { walk(c); return nil })
	return blob
}

// checkL1Program runs a program on both caches: shape picks the
// geometry, each byte pair of prog one operation on a line drawn from
// three lines per way, so sets fill, evict and pin. The operations are
// the tile's uses of its L1 — demand lookups with hit and miss
// accounting, probes, victim-then-install fills, S->M pinning, Inv,
// writeback evictions, forwarded downgrades, GrantM upgrades,
// prefetched fills and stores — and every return value, the counts and
// every way must agree after each, the checkpoint bytes at the end.
func checkL1Program(shape uint8, prog []byte) error {
	sets, ways := 1<<(shape&3), 1+int(shape>>2&3)
	got, ref := newL1(sets, ways), newAosL1(sets, ways)
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%10, prog[pc+1]
		line := uint64(arg) % uint64(3*sets*ways)
		var gw, rw int
		switch op {
		case 0: // demand access
			w := ref.lookup(line)
			gw, rw = got.lookup(line), ref.index(w)
			if gw >= 0 && w != nil {
				got.hits++
				ref.hits++
				got.flags[gw] &^= l1Prefetched
				w.prefetched = false
			} else {
				got.misses++
				ref.misses++
			}
		case 1:
			gw, rw = got.probe(line), ref.index(ref.probe(line))
		case 2, 3: // fill; 3 marks it prefetched
			if got.probe(line) >= 0 {
				break
			}
			gw, rw = got.victim(line), ref.index(ref.victim(line))
			if gw >= 0 && rw == gw {
				state, value := 1+arg%3, uint64(pc)
				got.install(gw, line, state, value)
				w := &ref.sets[gw/ways][gw%ways]
				ref.install(w, line, state, value)
				if op == 3 {
					got.flags[gw] |= l1Prefetched
					w.prefetched = true
				}
			}
		default:
			gw, rw = got.probe(line), ref.index(ref.probe(line))
			if gw < 0 || gw != rw {
				break
			}
			w := &ref.sets[gw/ways][gw%ways]
			switch op {
			case 4: // pin an S copy for an upgrade
				got.flags[gw] |= l1Pinned
				w.pinned = true
			case 5: // Inv
				got.flags[gw] &^= l1StateBits | l1Pinned
				w.state, w.pinned = l1Invalid, false
			case 6: // writeback eviction
				got.setState(gw, l1Invalid)
				w.state = l1Invalid
			case 7: // forwarded GetS
				got.setState(gw, l1Shared)
				w.state = l1Shared
			case 8: // GrantM
				got.flags[gw] = got.flags[gw]&l1Prefetched | l1Modified
				w.state, w.pinned = l1Modified, false
			case 9: // store hit
				got.setState(gw, l1Modified)
				got.value[gw] += uint64(arg)
				w.state = l1Modified
				w.value += uint64(arg)
			}
		}
		if gw != rw {
			return fmt.Errorf("op %d (kind %d, line %d): way %d, reference way %d", pc/2, op, line, gw, rw)
		}
		if got.hits != ref.hits || got.misses != ref.misses {
			return fmt.Errorf("op %d: hits/misses %d/%d, reference %d/%d", pc/2, got.hits, got.misses, ref.hits, ref.misses)
		}
		if got.tick != ref.tick {
			return fmt.Errorf("op %d: LRU clock %d, reference %d", pc/2, got.tick, ref.tick)
		}
		var states [4]int
		for s, set := range ref.sets {
			for i, w := range set {
				states[w.state]++
				g := s*ways + i
				f := w.state
				if w.pinned {
					f |= l1Pinned
				}
				if w.prefetched {
					f |= l1Prefetched
				}
				if got.line[g] != w.line || got.value[g] != w.value || got.lru[g] != w.lru || got.flags[g] != f {
					return fmt.Errorf("op %d (kind %d, line %d): way %d holds line %d value %d lru %d flags %#x, reference %+v",
						pc/2, op, line, g, got.line[g], got.value[g], got.lru[g], got.flags[g], w)
				}
			}
		}
		for s, n := range states {
			if got.countState(uint8(s)) != n {
				return fmt.Errorf("op %d: %d ways in state %s, reference %d", pc/2, got.countState(uint8(s)), l1StateName(uint8(s)), n)
			}
		}
	}
	if g, r := encodeWith(got.state), encodeWith(ref.state); !bytes.Equal(g, r) {
		return fmt.Errorf("checkpoint bytes differ from the reference")
	}
	return nil
}

func TestL1MatchesArrayOfStructs(t *testing.T) {
	prog := make([]byte, 4000)
	for shape := 0; shape < 16; shape++ {
		x := uint32(shape + 1)
		for i := range prog {
			x ^= x << 13
			x ^= x >> 17
			x ^= x << 5
			prog[i] = byte(x)
		}
		if err := checkL1Program(uint8(shape), prog); err != nil {
			t.Fatalf("shape %d: %v", shape, err)
		}
	}
}

func FuzzL1Equivalence(f *testing.F) {
	f.Add(uint8(0), []byte{2, 0, 0, 0, 5, 0, 1, 0})
	f.Add(uint8(15), []byte{2, 1, 2, 5, 3, 9, 4, 1, 0, 9, 8, 1, 2, 13, 6, 5, 9, 40})
	f.Fuzz(func(t *testing.T, shape uint8, prog []byte) {
		if err := checkL1Program(shape, prog); err != nil {
			t.Fatal(err)
		}
	})
}

// hasPointers reports whether a value of type t holds any pointer the
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
}

// TestFullsysFootprint pins the layout the full-system heap rests on
// (DESIGN.md "Full-system stepping"): the records the line tables and
// the miss-side buffers hold by value are pointer-free, a directory
// entry packs into 32 bytes and an L2 line into 24, and an L1 of the
// default geometry is two allocations totalling at most 13 KB.
func TestFullsysFootprint(t *testing.T) {
	for _, rec := range []struct {
		v   any
		max uintptr
	}{{dirLine{}, 32}, {l2Line{}, 24}, {mshrEntry{}, 32}, {wbEntry{}, 24}, {vbEntry{}, 24}, {fwdEntry{}, 48}} {
		typ := reflect.TypeOf(rec.v)
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
		if typ.Size() > rec.max {
			t.Errorf("%v is %d bytes, want at most %d", typ, typ.Size(), rec.max)
		}
	}
	var sink l1Cache
	if allocs := testing.AllocsPerRun(20, func() { sink = newL1(64, 8) }); allocs > 2 {
		t.Errorf("newL1(64, 8) makes %.0f allocations, want at most 2", allocs)
	}
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		sink = newL1(64, 8)
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / runs; per > 13<<10 {
		t.Errorf("newL1(64, 8) allocates %d bytes, want at most %d", per, 13<<10)
	}
	_ = sink
}
