package abstractnet

import (
	"fmt"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
)

// modelStater is implemented by every analytical model in this package.
// It is deliberately not part of the Model interface so external or
// test-local Model implementations keep compiling; Network.SnapshotTo
// fails loudly when handed a model it cannot serialize.
type modelStater interface {
	SnapshotTo(e *snapshot.Encoder)
	RestoreFrom(d *snapshot.Decoder) error
}

// SnapshotTo writes nothing beyond the marker: the zero-load model has
// no mutable state.
func (f *Fixed) SnapshotTo(e *snapshot.Encoder) {
	e.Section("model-fixed")
}

// RestoreFrom matches SnapshotTo.
func (f *Fixed) RestoreFrom(d *snapshot.Decoder) error {
	d.Section("model-fixed")
	return d.Err()
}

// SnapshotTo writes the contention model's windowed link-load state.
func (c *Contention) SnapshotTo(e *snapshot.Encoder) {
	e.Section("model-contention")
	e.U32(uint32(len(c.acc)))
	for i := range c.acc {
		e.F64(c.acc[i])
		e.F64(c.util[i])
	}
	e.U64(uint64(c.start))
}

// RestoreFrom reloads link-load state written by SnapshotTo.
func (c *Contention) RestoreFrom(d *snapshot.Decoder) error {
	d.Section("model-contention")
	if n := int(d.U32()); d.Err() == nil && n != len(c.acc) {
		d.Failf("contention model has %d links, snapshot has %d", len(c.acc), n)
		return d.Err()
	}
	for i := range c.acc {
		c.acc[i] = d.F64()
		c.util[i] = d.F64()
	}
	c.start = sim.Cycle(d.U64())
	return d.Err()
}

// SnapshotTo writes the fitted correction and the sliding observation
// window, then the base model's state: the reciprocal feedback loop
// resumes mid-fit after a restore.
func (t *Tuned) SnapshotTo(e *snapshot.Encoder) {
	e.Section("model-tuned")
	t.fit.SnapshotTo(e)
	base, ok := t.Base.(modelStater)
	if !ok {
		panic(fmt.Sprintf("abstractnet: base model %s does not support checkpointing", t.Base.Name()))
	}
	base.SnapshotTo(e)
}

// RestoreFrom reloads the correction state written by SnapshotTo.
func (t *Tuned) RestoreFrom(d *snapshot.Decoder) error {
	d.Section("model-tuned")
	if err := t.fit.RestoreFrom(d); err != nil {
		return err
	}
	base, ok := t.Base.(modelStater)
	if !ok {
		d.Failf("tuned base model %s does not support checkpointing", t.Base.Name())
		return d.Err()
	}
	return base.RestoreFrom(d)
}

// maxSources bounds the source ids a snapshot may name, so a corrupt
// one cannot size srcFree: far beyond any network this module builds.
const maxSources = 1 << 20

// SnapshotTo writes the abstract backend's state: the analytical
// model (including any tuned-correction fit), the pending-delivery
// set, per-source serialization horizons, and statistics. pc
// serializes packet payloads; nil requires all payloads nil.
//
// The tuned model owned by the hybrid and calibrated coordinators is
// the same object this network holds, so its state travels here and
// the coordinators must not encode it again.
func (n *Network) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	e.Section("absnet")
	ms, ok := n.model.(modelStater)
	if !ok {
		panic(fmt.Sprintf("abstractnet: model %s does not support checkpointing", n.model.Name()))
	}
	e.String(n.model.Name())
	ms.SnapshotTo(e)

	e.U64(uint64(n.cycle))
	e.U64(n.injected)
	e.U64(n.delivered)
	e.U64(n.nextID)
	n.tracker.SnapshotTo(e)

	// Firing order is (DeliveredAt, ID) whatever the queue's layout, so
	// equal states always produce equal bytes.
	pending := n.pending.Pending()
	e.U32(uint32(len(pending)))
	for _, d := range pending {
		p := d.Item
		e.U64(p.ID)
		e.Int(p.Src)
		e.Int(p.Dst)
		e.Int(p.VNet)
		e.U8(uint8(p.Class))
		e.Int(p.Size)
		e.U64(uint64(p.CreatedAt))
		e.U64(uint64(p.InjectedAt))
		e.U64(uint64(p.DeliveredAt))
		e.Int(p.Hops)
		if pc != nil {
			pc.EncodePayload(e, p.Payload)
		} else if p.Payload != nil {
			panic(fmt.Sprintf("abstractnet: packet %v has a payload but no codec was supplied", p))
		}
	}

	// Only the sources that have injected, in ascending order.
	used := 0
	for _, free := range n.srcFree {
		if free != 0 {
			used++
		}
	}
	e.U32(uint32(used))
	for s, free := range n.srcFree {
		if free != 0 {
			e.Int(s)
			e.U64(uint64(free))
		}
	}
}

// RestoreFrom reloads state written by SnapshotTo into a network built
// over the same model construction. track (optional) observes every
// restored pending packet.
func (n *Network) RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*noc.Packet)) error {
	d.Section("absnet")
	ms, ok := n.model.(modelStater)
	if !ok {
		d.Failf("model %s does not support checkpointing", n.model.Name())
		return d.Err()
	}
	if name := d.String(); d.Err() == nil && name != n.model.Name() {
		d.Failf("snapshot was taken with model %q, target uses %q", name, n.model.Name())
		return d.Err()
	}
	if err := ms.RestoreFrom(d); err != nil {
		return err
	}

	n.cycle = sim.Cycle(d.U64())
	n.injected = d.U64()
	n.delivered = d.U64()
	n.nextID = d.U64()
	if err := n.tracker.RestoreFrom(d); err != nil {
		return err
	}

	// A fresh queue: its wheel anchors at the first Drain, and the
	// restored deliveries pop from the far tier in the same order.
	np := d.Count(41)
	n.pending = sim.TypedQueue[*noc.Packet]{}
	for i := 0; i < np; i++ {
		d.Enter(fmt.Sprintf("pending[%d]", i))
		p := &noc.Packet{
			ID:          d.U64(),
			Src:         d.Int(),
			Dst:         d.Int(),
			VNet:        d.Int(),
			Class:       stats.LatencyClass(d.U8()),
			Size:        d.Int(),
			CreatedAt:   sim.Cycle(d.U64()),
			InjectedAt:  sim.Cycle(d.U64()),
			DeliveredAt: sim.Cycle(d.U64()),
			Hops:        d.Int(),
		}
		if d.Err() == nil && p.Size < 1 {
			d.Failf("packet size %d < 1", p.Size)
		}
		if pc != nil && d.Err() == nil {
			pl, err := pc.DecodePayload(d)
			if err != nil {
				d.Leave()
				return err
			}
			p.Payload = pl
		}
		d.Leave()
		if d.Err() != nil {
			return d.Err()
		}
		n.pending.Schedule(p.DeliveredAt, p)
		if track != nil {
			track(p)
		}
	}

	ns := d.Count(16)
	clear(n.srcFree)
	for i := 0; i < ns; i++ {
		s := d.Int()
		free := sim.Cycle(d.U64())
		if d.Err() != nil {
			return d.Err()
		}
		if s < 0 || s >= maxSources {
			d.Failf("source %d outside [0, %d)", s, maxSources)
			return d.Err()
		}
		for len(n.srcFree) <= s {
			n.srcFree = append(n.srcFree, 0)
		}
		n.srcFree[s] = free
	}
	n.drainBuf = n.drainBuf[:0]
	n.pool = noc.PacketPool{}
	return d.Err()
}
