package dram

import (
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// State walks a request. Its tag must name one of tags requesters.
func (r *Request) State(c *snapshot.Codec, tags uint64) {
	c.U64(&r.Line)
	c.Bool(&r.Write)
	c.U64(&r.Tag)
	c.U64(&r.Data)
	if r.Tag >= tags {
		c.Failf("requester tag %d outside [0, %d)", r.Tag, tags)
	}
}

// State walks the controller's complete timing and queue state, each
// queued request's tag bounded by tags (see Request.State). Bank/row
// decode is re-derived from the line address. The queue must be in
// arrival order, which the tick gate relies on.
func (ctl *Controller) State(c *snapshot.Codec, tags uint64) {
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
	snapshot.Slice(c, &ctl.queue, 33, func(c *snapshot.Codec, q *queued) {
		q.Request.State(c, tags)
		snapshot.As64(c, &q.arrived)
		if q.arrived < last {
			c.Failf("queued request for line %#x arrives at %d, before its predecessor at %d", q.Line, q.arrived, last)
		}
		last = q.arrived
		if c.Decoding() {
			q.bank, q.row = ctl.decode(q.Line)
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
