package dram

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// OracleStater is implemented by every oracle in this package. tags
// bounds the caller's requester tags (for the full-system model, its
// tile count).
type OracleStater interface {
	State(c *snapshot.Codec, tags uint64)
}

// State walks the detailed oracle's clock, undrained completions, and
// the full controller state.
func (o *DetailedOracle) State(c *snapshot.Codec, tags uint64) {
	c.Section("oracle-detailed")
	snapshot.As64(c, &o.cycle)
	snapshot.Slice(c, &o.buf, 33, func(c *snapshot.Codec, done *Completion) {
		snapshot.As64(c, &done.At)
		done.Request.State(c, tags)
	})
	o.ctl.State(c, tags)
}

// State walks the abstract oracle's fit, serialization horizon, and
// analytically timed in-flight requests in firing order, (completion
// time, seq), whatever the queue's layout, so equal states produce
// equal bytes. Decoding rejects entries out of that order and
// re-schedules the rest, in order, into a fresh queue, which then pops
// them in the same order.
func (o *AbstractOracle) State(c *snapshot.Codec, tags uint64) {
	c.Section("oracle-abstract")
	o.fit.State(c)
	snapshot.As64(c, &o.nextFree)
	snapshot.As64(c, &o.cycle)
	c.U64(&o.seq)
	c.U64(&o.reads)
	c.U64(&o.writes)
	o.latency.State(c)
	var pending []sim.Deferred[absPending]
	if c.Decoding() {
		o.pending = sim.TypedQueue[absPending]{}
	} else {
		pending = o.pending.Pending()
	}
	i := 0
	var prev sim.Deferred[absPending]
	snapshot.Slice(c, &pending, 41, func(c *snapshot.Codec, d *sim.Deferred[absPending]) {
		snapshot.As64(c, &d.When)
		c.U64(&d.Item.seq)
		d.Item.req.State(c, tags)
		if i > 0 && (d.When < prev.When || d.When == prev.When && d.Item.seq <= prev.Item.seq) {
			c.Failf("pending request (%v, seq %d) is not after (%v, seq %d)", d.When, d.Item.seq, prev.When, prev.Item.seq)
		} else if c.Decoding() && c.Err() == nil {
			o.pending.Schedule(d.When, d.Item)
		}
		prev = *d
		i++
	})
}

// State walks both fidelities plus the pairing state. The shadow
// side's requests are tagged with this oracle's own shadow-request
// ids, below shadowSeq; only the abstract (caller-visible) side
// carries the caller's tags.
func (o *CalibratedOracle) State(c *snapshot.Codec, tags uint64) {
	c.Section("oracle-calibrated")
	c.U64(&o.shadowSeq)
	o.abs.State(c, tags)
	o.det.State(c, o.shadowSeq)
	o.pair.State(c, nil)
	snapshot.Map(c, &o.arrived, 16, func(c *snapshot.Codec, id *uint64, at *sim.Cycle) {
		c.U64(id)
		snapshot.As64(c, at)
	})
}
