package sim

import "repro/internal/snapshot"

// State walks the generator's exact stream position. The stream
// identity (inc) is included so restoring into a differently-keyed
// component fails validation instead of silently splicing streams.
func (r *RNG) State(c *snapshot.Codec) {
	c.U64(&r.state)
	c.U64(&r.inc)
	if r.inc&1 == 0 {
		c.Failf("RNG stream increment %#x is even; PCG increments are always odd", r.inc)
	}
}
