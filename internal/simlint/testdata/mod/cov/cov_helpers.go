package cov

import "fixture/snapshot"

// restState is a sibling helper invoked on the receiver; the fields it
// touches count for the calling State.
func (g *Good) restState(c *snapshot.Codec) { c.F64(&g.b) }

// noteState takes the receiver as an argument; the rule tracks field
// references through the parameter.
func noteState(c *snapshot.Codec, g *Good) { c.Str(&g.note) }
