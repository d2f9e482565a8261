package stats

import "repro/internal/snapshot"

// State walks the accumulator's exact streaming state.
func (r *Running) State(c *snapshot.Codec) {
	c.U64(&r.n)
	c.F64(&r.mean)
	c.F64(&r.m2)
	c.F64(&r.min)
	c.F64(&r.max)
}

// State walks the histogram counts and moments. Geometry (bin width,
// bin count) is included so a restore into a histogram built with
// different parameters fails instead of shifting mass.
func (h *Histogram) State(c *snapshot.Codec) {
	snapshot.Match(c, (*snapshot.Codec).F64, h.binWidth, "histogram bin width")
	snapshot.Match(c, snapshot.As32[int], len(h.bins), "histogram bins")
	if c.Err() != nil {
		return
	}
	for i := range h.bins {
		c.U64(&h.bins[i])
	}
	c.U64(&h.overflow)
	h.moments.State(c)
}

// State walks all per-class and aggregate accumulators. Histogram
// presence must match the target tracker's construction.
func (t *LatencyTracker) State(c *snapshot.Codec) {
	t.total.State(c)
	t.network.State(c)
	t.queueing.State(c)
	t.hops.State(c)
	for i := range t.byClass {
		t.byClass[i].State(c)
	}
	if c.Present(t.hist != nil, "latency tracker histogram") {
		t.hist.State(c)
	}
}
