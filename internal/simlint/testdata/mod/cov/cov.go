// Package cov holds the statecov fixtures: a fully covered type
// (partly through cross-file helpers), a derived-annotated cache, a
// type with every flavour of missing field, and a half-paired type.
// Line numbers are asserted by internal/simlint's tests; keep edits
// appended or update the tests.
package cov

import "fixture/snap"

// Good round-trips every field — a directly, b through a sibling
// method in cov_helpers.go, note through a package-level function the
// receiver is passed to. The rule must follow both across files.
type Good struct {
	a    uint64
	b    float64
	note string
}

// SnapshotTo writes all three fields.
func (g *Good) SnapshotTo(e *snap.Encoder) {
	e.U64(g.a)
	g.encodeRest(e)
	writeNote(e, g)
}

// RestoreFrom reads all three fields back.
func (g *Good) RestoreFrom(d *snap.Decoder) error {
	g.a = d.U64()
	g.decodeRest(d)
	restoreNote(d, g)
	return d.Err()
}

// Cached carries a derived cache whose annotation suppresses the
// finding.
type Cached struct {
	vals []uint64
	sum  uint64 //simlint:derived recomputed from vals after restore
}

// SnapshotTo writes only the underlying values.
func (c *Cached) SnapshotTo(e *snap.Encoder) {
	e.U64(uint64(len(c.vals)))
	for _, v := range c.vals {
		e.U64(v)
	}
}

// RestoreFrom reloads the values and recomputes the cache.
func (c *Cached) RestoreFrom(d *snap.Decoder) error {
	n := int(d.U64())
	c.vals = c.vals[:0]
	c.sum = 0
	for i := 0; i < n; i++ {
		v := d.U64()
		c.vals = append(c.vals, v)
		c.sum += v
	}
	return d.Err()
}

// Missing is the positive case: kept round-trips; dropped is encoded
// but never decoded; ghost is decoded but never encoded; lost appears
// in neither method.
type Missing struct {
	kept    uint64
	dropped uint64
	ghost   uint64
	lost    uint64
}

// SnapshotTo forgets ghost and lost.
func (m *Missing) SnapshotTo(e *snap.Encoder) {
	e.U64(m.kept)
	e.U64(m.dropped)
}

// RestoreFrom forgets dropped and lost.
func (m *Missing) RestoreFrom(d *snap.Decoder) error {
	m.kept = d.U64()
	m.ghost = d.U64()
	return d.Err()
}

// Half has SnapshotTo but no RestoreFrom: itself a finding, because
// half a round trip is not a round trip.
type Half struct{ x uint64 }

// SnapshotTo writes the lone field into the void.
func (h *Half) SnapshotTo(e *snap.Encoder) { e.U64(h.x) }

// Generic reaches its fields through sibling helpers: a method called
// on a generic type's own receiver is an instantiation, and the rule
// must follow it to the declaration. held stays silent; missed, which
// no helper touches, fires.
type Generic[T any] struct {
	held   []T
	missed uint64
}

func (g *Generic[T]) count() int { return len(g.held) }

func (g *Generic[T]) clear() { g.held = g.held[:0] }

// SnapshotTo covers held through count.
func (g *Generic[T]) SnapshotTo(e *snap.Encoder) { e.U64(uint64(g.count())) }

// RestoreFrom covers held through clear.
func (g *Generic[T]) RestoreFrom(d *snap.Decoder) error {
	g.clear()
	_ = d.U64()
	return d.Err()
}
