package fullsys

import (
	"fmt"

	"repro/internal/sim"
)

// L1 line states, held in the low bits of a way's flag byte.
const (
	l1Invalid uint8 = iota
	l1Shared
	l1Exclusive
	l1Modified
)

// A way's flag byte: the state under l1StateBits, and two flags.
const (
	l1StateBits  uint8 = 3
	l1Pinned     uint8 = 1 << 2 // mid-transaction (e.g. S->M upgrade); not evictable
	l1Prefetched uint8 = 1 << 3 // filled by the prefetcher, not yet demanded
	l1FlagBits         = l1StateBits | l1Pinned | l1Prefetched
)

func l1StateName(s uint8) string {
	switch s {
	case l1Invalid:
		return "I"
	case l1Shared:
		return "S"
	case l1Exclusive:
		return "E"
	case l1Modified:
		return "M"
	}
	return fmt.Sprintf("state(%d)", s)
}

// l1Cache is a set-associative writeback L1 with true-LRU replacement,
// stored tag-major: way i of set s is index s*ways+i of every array,
// so the tags of a set share a host cache line. Methods name a way by
// that index, -1 for none.
type l1Cache struct {
	line, value, lru []uint64 // three windows of one allocation
	flags            []uint8
	ways             int    //simlint:derived construction geometry; decode matches it
	setMask          uint64 //simlint:derived recomputed from the set count at construction; decode matches the geometry
	tick             uint64

	hits, misses uint64
}

func newL1(sets, ways int) l1Cache {
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("fullsys: L1 sets must be a power of two, got %d", sets))
	}
	n := sets * ways
	words := make([]uint64, 3*n)
	return l1Cache{
		line:    words[:n:n],
		value:   words[n : 2*n : 2*n],
		lru:     words[2*n:],
		flags:   make([]uint8, n),
		ways:    ways,
		setMask: uint64(sets - 1),
	}
}

// set returns the index range of line's set.
func (c *l1Cache) set(line uint64) (lo, hi int) {
	lo = int(line&c.setMask) * c.ways
	return lo, lo + c.ways
}

// stateOf decodes a way's state from its flag byte. Under the
// simcheck build tag a byte with bits outside the three fields stops
// the run.
func (c *l1Cache) stateOf(w int) uint8 {
	if sim.Checking && c.flags[w]&^l1FlagBits != 0 {
		sim.Assert(false, "fullsys: L1 way %d has flag byte %#x", w, c.flags[w])
	}
	return c.flags[w] & l1StateBits
}

// setState changes a way's state, keeping its other flags.
func (c *l1Cache) setState(w int, s uint8) { c.flags[w] = c.flags[w]&^l1StateBits | s }

// lookup returns the way holding line, or -1. It refreshes LRU state
// on hit.
func (c *l1Cache) lookup(line uint64) int {
	w := c.probe(line)
	if w >= 0 {
		c.tick++
		c.lru[w] = c.tick
	}
	return w
}

// probe is lookup without LRU update or hit accounting (for handlers
// that must not perturb replacement, e.g. invalidations).
func (c *l1Cache) probe(line uint64) int {
	lo, hi := c.set(line)
	for w, tag := range c.line[lo:hi] {
		if tag == line && c.stateOf(lo+w) != l1Invalid {
			return lo + w
		}
	}
	return -1
}

// victim selects the way to evict for an install of line: an invalid
// way if one exists, else the least-recently-used unpinned way. It
// returns -1 when every way is pinned (caller must retry later).
func (c *l1Cache) victim(line uint64) int {
	lo, hi := c.set(line)
	lru := -1
	for w := lo; w < hi; w++ {
		if c.stateOf(w) == l1Invalid {
			return w
		}
		if c.flags[w]&l1Pinned != 0 {
			continue
		}
		if lru < 0 || c.lru[w] < c.lru[lru] {
			lru = w
		}
	}
	return lru
}

// install places line into the chosen way (which the caller obtained
// from victim and has already written back if needed), clearing its
// pinned and prefetched flags.
func (c *l1Cache) install(w int, line uint64, state uint8, value uint64) {
	c.tick++
	c.line[w], c.value[w], c.lru[w], c.flags[w] = line, value, c.tick, state
}

// countState reports how many lines are in the given state (testing
// and invariant checks).
func (c *l1Cache) countState(state uint8) int {
	n := 0
	for w := range c.flags {
		if c.stateOf(w) == state {
			n++
		}
	}
	return n
}

// l2Bank is one bank of the shared, non-inclusive L2 data cache with
// LRU replacement. The directory tracks ownership independently, so
// evicting data never requires recalling L1 copies; dirty victims are
// written back to memory through a victim buffer.
//
// The lines sit by value in a line table that grows from a few slots
// as the bank fills, never to its capacity up front. Every access
// stamps a line with the next tick; the victim is the line with the
// smallest (lru, line) pair, found by a scan when the bank is full.
type l2Bank struct {
	capacity int
	lines    lineTable[l2Line]
	tick     uint64

	hits, misses uint64
}

type l2Line struct {
	value uint64
	dirty bool
	lru   uint64
}

func newL2(capacity int) *l2Bank {
	return &l2Bank{capacity: capacity}
}

// get returns the bank's copy of line, refreshing LRU, or nil. The
// pointer is good until the next put.
func (b *l2Bank) get(line uint64) *l2Line {
	i := b.lines.find(line)
	if i < 0 {
		return nil
	}
	b.tick++
	l := b.lines.rec(i)
	l.lru = b.tick
	return l
}

// put inserts or updates a line, evicting the LRU line if the bank is
// full. It returns the evicted line and its value if the victim was
// dirty and must be written back.
func (b *l2Bank) put(line uint64, value uint64, dirty bool) (evictedLine uint64, evictedValue uint64, writeback bool) {
	if i := b.lines.find(line); i >= 0 {
		b.tick++
		l := b.lines.rec(i)
		l.value = value
		l.dirty = l.dirty || dirty
		l.lru = b.tick
		return 0, 0, false
	}
	if b.lines.n >= b.capacity {
		victim := b.oldest()
		if v := b.lines.rec(victim); v.dirty {
			evictedLine, evictedValue, writeback = b.lines.keyAt(victim), v.value, true
		}
		b.lines.remove(victim)
	}
	b.tick++
	*b.lines.rec(b.lines.insert(line)) = l2Line{value: value, dirty: dirty, lru: b.tick}
	return evictedLine, evictedValue, writeback
}

// drop removes a line without writeback (it became stale).
func (b *l2Bank) drop(line uint64) {
	if i := b.lines.find(line); i >= 0 {
		b.lines.remove(i)
	}
}

// oldest returns the slot of the line with the smallest (lru, line)
// pair in a bank that holds at least one.
func (b *l2Bank) oldest() int {
	t := &b.lines
	victim := -1
	var oldest, victimLine uint64
	for i, k := range t.keys {
		if k == emptyLine {
			continue
		}
		if lru := t.vals[i].lru; victim < 0 || lru < oldest || lru == oldest && k < victimLine {
			victim, oldest, victimLine = i, lru, k
		}
	}
	// emptyLine is the largest line, so it wins only a strictly older
	// stamp.
	if t.top && (victim < 0 || t.topVal.lru < oldest) {
		victim = len(t.keys)
	}
	return victim
}
