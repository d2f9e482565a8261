package abstractnet

import (
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// State walks nothing beyond the marker: the zero-load model has no
// mutable state.
func (f *Fixed) State(c *snapshot.Codec) {
	c.Section("model-fixed")
}

// State walks the contention model's windowed link-load state.
func (m *Contention) State(c *snapshot.Codec) {
	c.Section("model-contention")
	snapshot.Match(c, snapshot.As32[int], len(m.acc), "contention model links")
	if c.Err() != nil {
		return
	}
	for i := range m.acc {
		c.F64(&m.acc[i])
		c.F64(&m.util[i])
	}
	snapshot.As64(c, &m.start)
}

// State walks the fitted correction and the sliding observation
// window, then the base model's state: the reciprocal feedback loop
// resumes mid-fit after a restore.
func (t *Tuned) State(c *snapshot.Codec) {
	c.Section("model-tuned")
	t.fit.State(c)
	t.Base.State(c)
}

// State walks the abstract backend's state: the analytical model
// (including any tuned-correction fit), the pending-delivery set,
// per-source serialization horizons, and statistics. pc describes
// packet payloads; nil requires all payloads nil. The target of a
// decode is a network built over the same model construction; track
// (optional) observes every decoded pending packet.
//
// The tuned model owned by the hybrid and calibrated coordinators is
// the same object this network holds, so its state travels here and
// the coordinators must not walk it again.
func (n *Network) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*noc.Packet)) {
	c.Section("absnet")
	snapshot.Match(c, (*snapshot.Codec).String, n.model.Name(), "model")
	if c.Err() != nil {
		return
	}
	n.model.State(c)

	snapshot.As64(c, &n.cycle)
	c.U64(&n.injected)
	c.U64(&n.delivered)
	c.U64(&n.nextID)
	n.tracker.State(c)

	// Firing order is (DeliveredAt, ID) whatever the queue's layout, so
	// equal states always produce equal bytes. Decoding fills a fresh
	// queue: its wheel anchors at the first Drain, and the deliveries
	// pop from the far tier in the same order.
	var pending []*noc.Packet
	if c.Decoding() {
		n.pending = sim.TypedQueue[*noc.Packet]{}
	} else {
		for _, d := range n.pending.Pending() {
			pending = append(pending, d.Item)
		}
	}
	i := 0
	snapshot.Slice(c, &pending, 41, func(c *snapshot.Codec, pp **noc.Packet) {
		if c.Decoding() {
			*pp = &noc.Packet{}
		}
		p := *pp
		c.Enter("pending", i)
		p.State(c, pc)
		c.Leave()
		if i++; c.Decoding() && c.Err() == nil {
			n.pending.Schedule(p.DeliveredAt, p)
			if track != nil {
				track(p)
			}
		}
	})

	// Only the sources that have injected, in ascending order.
	type horizon struct {
		src  int
		free sim.Cycle
	}
	var used []horizon
	if c.Decoding() {
		clear(n.srcFree)
	} else {
		for s, free := range n.srcFree {
			if free != 0 {
				used = append(used, horizon{s, free})
			}
		}
	}
	snapshot.Slice(c, &used, 16, func(c *snapshot.Codec, h *horizon) {
		c.Int(&h.src)
		snapshot.As64(c, &h.free)
		if c.Err() != nil {
			return
		}
		if h.src < 0 || h.src >= len(n.srcFree) {
			c.Failf("source %d outside [0, %d)", h.src, len(n.srcFree))
		} else if c.Decoding() {
			n.srcFree[h.src] = h.free
		}
	})
	if c.Decoding() && c.Err() == nil {
		n.rederive()
	}
}

// rederive resets what is not part of the state after a successful
// decode: an empty drain scratch and an empty packet free list, as
// NewNetwork leaves them.
func (n *Network) rederive() {
	n.drainBuf = n.drainBuf[:0]
	n.pool = noc.PacketPool{}
}
