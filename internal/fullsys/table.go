package fullsys

import (
	"cmp"
	"math/bits"
	"slices"

	"repro/internal/snapshot"
)

// lineTable is an open-addressed hash table from a line to a record
// held by value: a power-of-two key array probed linearly from a
// multiplicative hash, beside a record array indexed the same way. It
// replaces a map from line to a pointer to a heap record, so a lookup
// reads one key array and an insert allocates nothing on a warm table.
//
// emptyLine marks a free slot. No address reaches that line, but a
// corrupt checkpoint may name it, so its record, when present, is
// held apart and answers to slot len(keys). A record's slot — and a
// pointer to it — stays valid until the next insert, which may grow
// the table, or the next remove, which may shift entries back.
type lineTable[V any] struct {
	keys   []uint64
	vals   []V
	n      int // entries, emptyLine's included
	shift  uint8
	top    bool // emptyLine is a key
	topVal V    // emptyLine's record
}

// emptyLine marks a free slot of a lineTable.
const emptyLine = ^uint64(0)

// minTableSlots is the probe array a table gets at its first insert.
const minTableSlots = 8

// home is where line's probe sequence starts.
func (t *lineTable[V]) home(line uint64) int {
	return int((line * 0x9e3779b97f4a7c15) >> t.shift)
}

// find returns the slot holding line, or -1.
func (t *lineTable[V]) find(line uint64) int {
	if line == emptyLine {
		if t.top {
			return len(t.keys)
		}
		return -1
	}
	if t.n == 0 {
		return -1
	}
	mask := len(t.keys) - 1
	for i := t.home(line); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case line:
			return i
		case emptyLine:
			return -1
		}
	}
}

// full reports whether one more entry would pass the load limit of
// three quarters.
func (t *lineTable[V]) full() bool { return 4*(t.n+1) > 3*len(t.keys) }

// insert adds line, which must be absent, growing the table first if
// it is full, and returns its slot. The record there is stale; the
// caller writes it.
func (t *lineTable[V]) insert(line uint64) int {
	if t.full() {
		t.rehash(max(2*len(t.keys), minTableSlots))
	}
	t.n++
	if line == emptyLine {
		t.top = true
		return len(t.keys)
	}
	return t.place(line)
}

// remove deletes the entry in slot i by backward shift: each later
// entry of the probe run that may fill the hole moves into it, so the
// table keeps no tombstones.
func (t *lineTable[V]) remove(i int) {
	t.n--
	if i == len(t.keys) {
		t.top = false
		return
	}
	mask := len(t.keys) - 1
	t.keys[i] = emptyLine
	for j := (i + 1) & mask; t.keys[j] != emptyLine; j = (j + 1) & mask {
		// The entry at j may move back to the hole unless its home
		// lies cyclically in (i, j].
		if h := t.home(t.keys[j]); (j-h)&mask < (j-i)&mask {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		t.keys[j] = emptyLine
		i = j
	}
}

// place puts line in the first free slot of its probe sequence.
func (t *lineTable[V]) place(line uint64) int {
	mask := len(t.keys) - 1
	i := t.home(line)
	for t.keys[i] != emptyLine {
		i = (i + 1) & mask
	}
	t.keys[i] = line
	return i
}

// rec is the record in slot i.
func (t *lineTable[V]) rec(i int) *V {
	if i < len(t.vals) {
		return &t.vals[i]
	}
	return &t.topVal
}

// keyAt is the line slot i holds.
func (t *lineTable[V]) keyAt(i int) uint64 {
	if i == len(t.keys) {
		return emptyLine
	}
	return t.keys[i]
}

// reset empties the table into a probe array of the given size (0
// until the first insert).
func (t *lineTable[V]) reset(slots int) {
	*t = lineTable[V]{}
	if slots == 0 {
		return
	}
	t.keys = make([]uint64, slots)
	for i := range t.keys {
		t.keys[i] = emptyLine
	}
	t.vals = make([]V, slots)
	t.shift = uint8(64 - bits.Len(uint(slots-1)))
}

// rehash moves every entry into a probe array of the given size.
func (t *lineTable[V]) rehash(slots int) {
	old := *t
	t.reset(slots)
	t.n, t.top, t.topVal = old.n, old.top, old.topVal
	for i, k := range old.keys {
		if k != emptyLine {
			t.vals[t.place(k)] = old.vals[i]
		}
	}
}

// ordered returns the occupied slots in ascending line order.
func (t *lineTable[V]) ordered() []int {
	slots := make([]int, 0, t.n)
	for i, k := range t.keys {
		if k != emptyLine {
			slots = append(slots, i)
		}
	}
	slices.SortFunc(slots, func(a, b int) int { return cmp.Compare(t.keys[a], t.keys[b]) })
	if t.top {
		slots = append(slots, len(t.keys))
	}
	return slots
}

// walkTable walks a line table as snapshot.Map walks a map: a count,
// then one entry per line in ascending line order; decoding empties the
// table and keeps the last entry of a line the input repeats.
func walkTable[V any](c *snapshot.Codec, t *lineTable[V], perItemMin int, entry func(c *snapshot.Codec, line *uint64, v *V)) {
	if !c.Decoding() {
		slots := t.ordered()
		c.Len(len(slots), perItemMin)
		for _, i := range slots {
			line := t.keyAt(i)
			entry(c, &line, t.rec(i))
		}
		return
	}
	n := c.Len(0, perItemMin)
	t.reset(0)
	for i := 0; i < n; i++ {
		var line uint64
		var v V
		if entry(c, &line, &v); c.Err() != nil {
			return
		}
		at := t.find(line)
		if at < 0 {
			at = t.insert(line)
		}
		*t.rec(at) = v
	}
}

// walkLines walks a small per-tile buffer keyed by line as the map it
// replaced: a count, then its entries in ascending line order, each
// walked by entry, line first. Decoding keeps the last entry of a line
// the input repeats.
func walkLines[E any](c *snapshot.Codec, s *[]E, perItemMin int, lineOf func(*E) uint64, entry func(*snapshot.Codec, *E)) {
	if !c.Decoding() {
		sorted := slices.Clone(*s)
		slices.SortFunc(sorted, func(a, b E) int { return cmp.Compare(lineOf(&a), lineOf(&b)) })
		c.Len(len(sorted), perItemMin)
		for i := range sorted {
			entry(c, &sorted[i])
		}
		return
	}
	n := c.Len(0, perItemMin)
	*s = (*s)[:0]
	for i := 0; i < n; i++ {
		var e E
		if entry(c, &e); c.Err() != nil {
			return
		}
		if at := slices.IndexFunc(*s, func(x E) bool { return lineOf(&x) == lineOf(&e) }); at >= 0 {
			(*s)[at] = e
		} else {
			*s = append(*s, e)
		}
	}
}

// deleteAt removes s[i] by moving the last element into its place: the
// buffers it serves are searched, never walked in order.
func deleteAt[E any](s []E, i int) []E {
	last := len(s) - 1
	s[i] = s[last]
	return s[:last]
}
