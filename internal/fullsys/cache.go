package fullsys

import "fmt"

// L1 line states.
const (
	l1Invalid uint8 = iota
	l1Shared
	l1Exclusive
	l1Modified
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

// l1Line is one L1 cache way.
type l1Line struct {
	line       uint64
	state      uint8
	pinned     bool // mid-transaction (e.g. S->M upgrade); not evictable
	prefetched bool // filled by the prefetcher, not yet demanded
	value      uint64
	lru        uint64
}

// l1Cache is a set-associative writeback L1 with true-LRU replacement.
type l1Cache struct {
	sets    [][]l1Line
	setMask uint64 //simlint:derived recomputed from the set count at construction; decode matches the geometry
	tick    uint64

	hits, misses uint64
}

func newL1(sets, ways int) *l1Cache {
	if sets&(sets-1) != 0 {
		panic(fmt.Sprintf("fullsys: L1 sets must be a power of two, got %d", sets))
	}
	c := &l1Cache{sets: make([][]l1Line, sets), setMask: uint64(sets - 1)}
	for i := range c.sets {
		c.sets[i] = make([]l1Line, ways)
	}
	return c
}

func (c *l1Cache) set(line uint64) []l1Line { return c.sets[line&c.setMask] }

// lookup returns the way holding line, or nil. It refreshes LRU state
// on hit.
func (c *l1Cache) lookup(line uint64) *l1Line {
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

// probe is lookup without LRU update or hit accounting (for handlers
// that must not perturb replacement, e.g. invalidations).
func (c *l1Cache) probe(line uint64) *l1Line {
	set := c.set(line)
	for i := range set {
		w := &set[i]
		if w.state != l1Invalid && w.line == line {
			return w
		}
	}
	return nil
}

// victim selects the way to evict for an install of line: an invalid
// way if one exists, else the least-recently-used unpinned way. It
// returns nil when every way is pinned (caller must retry later).
func (c *l1Cache) victim(line uint64) *l1Line {
	set := c.set(line)
	var lru *l1Line
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

// install places line into the chosen way (which the caller obtained
// from victim and has already written back if needed).
func (c *l1Cache) install(w *l1Line, line uint64, state uint8, value uint64) {
	c.tick++
	*w = l1Line{line: line, state: state, value: value, lru: c.tick}
}

// countState reports how many lines are in the given state (testing
// and invariant checks).
func (c *l1Cache) countState(state uint8) int {
	n := 0
	for _, set := range c.sets {
		for i := range set {
			if set[i].state == state {
				n++
			}
		}
	}
	return n
}

// l2Bank is one bank of the shared, non-inclusive L2 data cache with
// LRU replacement. The directory tracks ownership independently, so
// evicting data never requires recalling L1 copies; dirty victims are
// written back to memory through a victim buffer.
type l2Bank struct {
	capacity int
	lines    map[uint64]*l2Line
	tick     uint64

	hits, misses uint64
}

type l2Line struct {
	value uint64
	dirty bool
	lru   uint64
}

func newL2(capacity int) *l2Bank {
	return &l2Bank{capacity: capacity, lines: make(map[uint64]*l2Line)}
}

// get returns the bank's copy of line, refreshing LRU, or nil.
func (b *l2Bank) get(line uint64) *l2Line {
	l := b.lines[line]
	if l != nil {
		b.tick++
		l.lru = b.tick
	}
	return l
}

// put inserts or updates a line, evicting the LRU line if the bank is
// full. It returns the evicted line and its value if the victim was
// dirty and must be written back.
func (b *l2Bank) put(line uint64, value uint64, dirty bool) (evictedLine uint64, evictedValue uint64, writeback bool) {
	if l := b.lines[line]; l != nil {
		b.tick++
		l.value = value
		l.dirty = l.dirty || dirty
		l.lru = b.tick
		return 0, 0, false
	}
	if len(b.lines) >= b.capacity {
		var victim uint64
		var oldest uint64 = ^uint64(0)
		//simlint:allow maprange min scan with a total-order tie-break on (lru, line), so iteration order cannot change the victim
		for ln, l := range b.lines {
			if l.lru < oldest || (l.lru == oldest && ln < victim) {
				oldest = l.lru
				victim = ln
			}
		}
		v := b.lines[victim]
		delete(b.lines, victim)
		if v.dirty {
			evictedLine, evictedValue, writeback = victim, v.value, true
		}
	}
	b.tick++
	b.lines[line] = &l2Line{value: value, dirty: dirty, lru: b.tick}
	return evictedLine, evictedValue, writeback
}

// drop removes a line without writeback (it became stale).
func (b *l2Bank) drop(line uint64) {
	delete(b.lines, line)
}
