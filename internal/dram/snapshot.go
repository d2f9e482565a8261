package dram

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// State walks the controller's complete timing and queue state. Queued
// requests carry an opaque completion callback that cannot be
// serialized, so the caller supplies meta, which walks enough of
// Request.Meta to reconstruct Done — and, decoding, must set it;
// bank/row decode is re-derived from the line address. The queue must
// be in arrival order, which the tick gate relies on.
func (ctl *Controller) State(c *snapshot.Codec, meta func(*snapshot.Codec, *Request)) {
	c.Section("dram")
	snapshot.Match(c, snapshot.As32[int], len(ctl.banks), "DRAM banks")
	if c.Err() != nil {
		return
	}
	for i := range ctl.banks {
		snapshot.As64(c, &ctl.banks[i].openRow)
		snapshot.As64(c, &ctl.banks[i].readyAt)
	}
	snapshot.As64(c, &ctl.busFreeAt)
	c.U64(&ctl.rowHits)
	c.U64(&ctl.rowMisses)
	c.U64(&ctl.rowConflicts)
	c.U64(&ctl.reads)
	c.U64(&ctl.writes)
	ctl.latency.State(c)
	ctl.queueSamples.State(c)
	var last sim.Cycle
	snapshot.Slice(c, &ctl.queue, 17, func(c *snapshot.Codec, rp **Request) {
		if c.Decoding() {
			*rp = &Request{}
		}
		r := *rp
		c.U64(&r.Line)
		c.Bool(&r.Write)
		snapshot.As64(c, &r.arrived)
		if r.arrived < last {
			c.Failf("queued request for line %#x arrives at %d, before its predecessor at %d", r.Line, r.arrived, last)
		}
		last = r.arrived
		meta(c, r)
		if r.Done == nil {
			c.Failf("queued request for line %#x has no completion callback", r.Line)
		}
		if c.Decoding() {
			r.bank, r.row = ctl.decode(r.Line)
		}
	})
	if c.Decoding() && c.Err() == nil {
		ctl.rederive()
	}
}

// rederive rebuilds the tick gate after a decode: the next tick
// recounts the arrived prefix from zero, and nextIssue is recomputed.
func (ctl *Controller) rederive() {
	ctl.seen = 0
	ctl.nextIssue = ctl.earliestIssue()
}
