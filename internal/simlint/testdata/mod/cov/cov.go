// Package cov holds the statecov fixtures: a fully covered type
// (partly through cross-file helpers), a derived-annotated cache, a
// type with every flavour of missing field, a nested type that only
// an unexported method describes, and a generic one. Line numbers are
// asserted by internal/simlint's tests; keep edits appended or update
// the tests.
package cov

import "fixture/snapshot"

// Good describes every field — a directly, b through a sibling method
// in cov_helpers.go, note through a package-level function the
// receiver is passed to. The rule must follow both across files.
type Good struct {
	a    uint64
	b    float64
	note string
}

// State walks all three fields.
func (g *Good) State(c *snapshot.Codec) {
	c.U64(&g.a)
	g.restState(c)
	noteState(c, g)
}

// Cached carries a derived cache whose annotation suppresses the
// finding.
type Cached struct {
	vals []uint64
	sum  uint64 //simlint:derived recomputed from vals after a decode
}

// State walks only the underlying values.
func (cc *Cached) State(c *snapshot.Codec) {
	n := uint64(len(cc.vals))
	c.U64(&n)
	if c.Decoding() {
		cc.vals = make([]uint64, n)
	}
	for i := range cc.vals {
		c.U64(&cc.vals[i])
	}
}

// Missing is the positive case: kept is walked; dropped is touched
// only by a method State never reaches; ghost only on another value of
// the type, never on the receiver; lost appears nowhere.
type Missing struct {
	kept    uint64
	dropped uint64
	ghost   uint64
	lost    uint64
}

func (m *Missing) reset() { m.dropped = 0 }

// State forgets dropped, ghost and lost.
func (m *Missing) State(c *snapshot.Codec) {
	var other Missing
	c.U64(&m.kept)
	c.U64(&other.ghost)
}

// Outer hands its nested record to that record's own description.
type Outer struct {
	id    uint64
	inner inner
}

// State covers id and inner.
func (o *Outer) State(c *snapshot.Codec) {
	c.U64(&o.id)
	o.inner.state(c)
}

// inner is described only by an unexported method; the rule keys on
// the codec parameter, not the method's name, so forgot still fires.
type inner struct {
	walked uint64
	forgot uint64
}

func (in *inner) state(c *snapshot.Codec) { c.U64(&in.walked) }

// Generic reaches its fields through sibling helpers: a method called
// on a generic type's own receiver is an instantiation, and the rule
// must follow it to the declaration. held stays silent; missed, which
// no helper touches, fires.
type Generic[T any] struct {
	held   []T
	missed uint64
}

func (g *Generic[T]) count() int { return len(g.held) }

// State covers held through count.
func (g *Generic[T]) State(c *snapshot.Codec) {
	n := uint64(g.count())
	c.U64(&n)
}
