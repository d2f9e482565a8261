package dram

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// OracleStater is implemented by every oracle in this package: the
// caller supplies the walk of the opaque request metadata (the fullsys
// memory message), which the oracle cannot describe itself.
type OracleStater interface {
	State(c *snapshot.Codec, meta func(*snapshot.Codec, *interface{}))
}

// State walks the detailed oracle's clock, undrained completions, and
// the full controller state; decoding, each queued request's
// completion callback is rebuilt against this oracle's buffer.
func (o *DetailedOracle) State(c *snapshot.Codec, meta func(*snapshot.Codec, *interface{})) {
	c.Section("oracle-detailed")
	snapshot.As64(c, &o.cycle)
	snapshot.Slice(c, &o.buf, 17, func(c *snapshot.Codec, done *Completion) {
		snapshot.As64(c, &done.At)
		meta(c, &done.Meta)
	})
	o.ctl.State(c, func(c *snapshot.Codec, r *Request) {
		meta(c, &r.Meta)
		if c.Decoding() {
			r.Done = o.done(r.Meta)
		}
	})
}

// State walks the abstract oracle's fit, serialization horizon, and
// analytically timed in-flight requests. The heap's internal layout is
// not observable (pops follow the total (At, seq) order), so encoding
// walks a sorted view for byte-stable snapshots — which, read back in
// that order, is a valid min-heap layout already.
func (o *AbstractOracle) State(c *snapshot.Codec, meta func(*snapshot.Codec, *interface{})) {
	c.Section("oracle-abstract")
	o.fit.State(c)
	snapshot.As64(c, &o.nextFree)
	snapshot.As64(c, &o.cycle)
	c.U64(&o.seq)
	c.U64(&o.reads)
	c.U64(&o.writes)
	o.latency.State(c)
	pending := []absPending(o.pending)
	if !c.Decoding() {
		pending = append([]absPending(nil), pending...)
		sort.Sort(absHeap(pending))
	}
	snapshot.Slice(c, &pending, 17, func(c *snapshot.Codec, p *absPending) {
		snapshot.As64(c, &p.at)
		c.U64(&p.seq)
		meta(c, &p.meta)
	})
	if c.Decoding() {
		o.pending = pending
	}
}

// State walks both fidelities plus the pairing state. The shadow
// side's metadata are this oracle's own shadow-request ids, so only
// the abstract (caller-visible) side uses the caller's meta.
func (o *CalibratedOracle) State(c *snapshot.Codec, meta func(*snapshot.Codec, *interface{})) {
	c.Section("oracle-calibrated")
	c.U64(&o.shadowSeq)
	o.abs.State(c, meta)
	o.det.State(c, func(c *snapshot.Codec, meta *interface{}) {
		var id uint64
		if !c.Decoding() {
			id = (*meta).(uint64)
		}
		if c.U64(&id); c.Decoding() {
			*meta = id
		}
	})
	o.pair.State(c,
		func(a, b uint64) bool { return a < b },
		func(c *snapshot.Codec, id *uint64) { c.U64(id) })
	snapshot.Map(c, &o.arrived, 16, func(c *snapshot.Codec, id *uint64, at *sim.Cycle) {
		c.U64(id)
		snapshot.As64(c, at)
	})
}
