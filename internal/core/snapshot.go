package core

import (
	"fmt"

	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// BackendStater is implemented by network backends that support
// checkpointing. pc serializes packet payloads (the system's Msg
// values); track, when non-nil, observes every restored in-flight
// packet so pointer-keyed caller state can be rebuilt.
type BackendStater interface {
	SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec)
	RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*noc.Packet)) error
}

// SnapshotTo implements BackendStater for the cycle-level adapter.
func (d *Detailed) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	switch net := d.Net.(type) {
	case *noc.Network:
		net.SnapshotTo(e, pc)
	case *noc.Deflection:
		net.SnapshotTo(e, pc)
	default:
		panic(fmt.Sprintf("core: cycle-level network %T does not support checkpointing", d.Net))
	}
}

// RestoreFrom implements BackendStater for the cycle-level adapter.
func (d *Detailed) RestoreFrom(dec *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*noc.Packet)) error {
	switch net := d.Net.(type) {
	case *noc.Network:
		return net.RestoreFrom(dec, pc, track)
	case *noc.Deflection:
		return net.RestoreFrom(dec, pc, track)
	default:
		dec.Failf("cycle-level network %T does not support checkpointing", d.Net)
		return dec.Err()
	}
}

// SnapshotTo implements BackendStater for the analytical adapter.
func (a *Abstract) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	a.Net.SnapshotTo(e, pc)
}

// RestoreFrom implements BackendStater for the analytical adapter.
func (a *Abstract) RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*noc.Packet)) error {
	return a.Net.RestoreFrom(d, pc, track)
}

// packetLess orders packets by ID for byte-stable snapshots of
// packet-keyed calibration state.
func packetLess(a, b *noc.Packet) bool { return a.ID < b.ID }

// encodePacketKey writes a packet-keyed calibration entry as the packet
// ID. The packets are live in the network whose snapshot precedes this
// in the stream, so IDs resolve on restore.
func encodePacketKey(e *snapshot.Encoder, p *noc.Packet) { e.U64(p.ID) }

// decodePacketKey resolves a written packet ID against the restored
// in-flight packets collected in byID.
func decodePacketKey(byID map[uint64]*noc.Packet) func(*snapshot.Decoder) (*noc.Packet, error) {
	return func(d *snapshot.Decoder) (*noc.Packet, error) {
		id := d.U64()
		if d.Err() != nil {
			return nil, d.Err()
		}
		p, ok := byID[id]
		if !ok {
			d.Failf("prediction refers to packet %d, which is not in flight", id)
			return nil, d.Err()
		}
		return p, nil
	}
}

// SnapshotTo implements BackendStater for the sampling backend. The
// tuned model's state is carried inside the abstract network's
// snapshot (they share the object), so it is not written separately.
func (h *Hybrid) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	e.Section("hybrid")
	h.tracker.SnapshotTo(e)
	bs, ok := h.detailed.(BackendStater)
	if !ok {
		panic(fmt.Sprintf("core: hybrid detailed backend %q does not support checkpointing", h.detailed.Name()))
	}
	bs.SnapshotTo(e, pc)
	h.abstract.SnapshotTo(e, pc)
	h.pair.SnapshotTo(e, packetLess, encodePacketKey)
}

// RestoreFrom implements BackendStater for the sampling backend.
func (h *Hybrid) RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*noc.Packet)) error {
	d.Section("hybrid")
	if err := h.tracker.RestoreFrom(d); err != nil {
		return err
	}
	bs, ok := h.detailed.(BackendStater)
	if !ok {
		d.Failf("hybrid detailed backend %q does not support checkpointing", h.detailed.Name())
		return d.Err()
	}
	byID := make(map[uint64]*noc.Packet)
	collect := func(p *noc.Packet) {
		byID[p.ID] = p
		if track != nil {
			track(p)
		}
	}
	if err := bs.RestoreFrom(d, pc, collect); err != nil {
		return err
	}
	if err := h.abstract.RestoreFrom(d, pc, track); err != nil {
		return err
	}
	if err := h.pair.RestoreFrom(d, decodePacketKey(byID)); err != nil {
		return err
	}
	h.drainBuf = h.drainBuf[:0]
	return d.Err()
}

// SnapshotTo implements BackendStater for the calibrated backend. The
// timing network carries the shared tuned model's state; the shadow
// detailed network's packets have no payloads, so it is written with
// a nil codec regardless of pc.
func (c *Calibrated) SnapshotTo(e *snapshot.Encoder, pc snapshot.PayloadCodec) {
	e.Section("calibrated")
	e.U64(c.shadowed)
	c.timing.SnapshotTo(e, pc)
	bs, ok := c.detailed.(BackendStater)
	if !ok {
		panic(fmt.Sprintf("core: calibrated detailed backend %q does not support checkpointing", c.detailed.Name()))
	}
	bs.SnapshotTo(e, nil)
	c.pair.SnapshotTo(e, packetLess, encodePacketKey)
}

// RestoreFrom implements BackendStater for the calibrated backend.
func (c *Calibrated) RestoreFrom(d *snapshot.Decoder, pc snapshot.PayloadCodec, track func(*noc.Packet)) error {
	d.Section("calibrated")
	c.shadowed = d.U64()
	if err := c.timing.RestoreFrom(d, pc, track); err != nil {
		return err
	}
	bs, ok := c.detailed.(BackendStater)
	if !ok {
		d.Failf("calibrated detailed backend %q does not support checkpointing", c.detailed.Name())
		return d.Err()
	}
	byID := make(map[uint64]*noc.Packet)
	if err := bs.RestoreFrom(d, nil, func(p *noc.Packet) { byID[p.ID] = p }); err != nil {
		return err
	}
	return c.pair.RestoreFrom(d, decodePacketKey(byID))
}

// SnapshotTo writes the full co-simulation state: coordinator
// counters, the complete system simulator, and the network backend
// with all in-flight packets. Host wall-time accounting is
// deliberately excluded — it restarts at zero on resume — so equal
// target states always serialize to equal bytes. It fails when the
// backend does not support checkpointing.
func (c *Cosim) SnapshotTo(e *snapshot.Encoder) error {
	bs, ok := c.Net.(BackendStater)
	if !ok {
		return fmt.Errorf("core: backend %q does not support checkpointing", c.Net.Name())
	}
	c.snapshotSystem(e)
	bs.SnapshotTo(e, fullsys.MsgCodec{Tiles: c.Sys.Cfg().Tiles})
	return nil
}

// snapshotSystem writes everything but the backend: the coordinator
// counters and the system simulator. On a quiescent network that is
// the whole state, which is what ForkInto carries across backends.
func (c *Cosim) snapshotSystem(e *snapshot.Encoder) {
	e.Section("cosim")
	e.U64(uint64(c.cycle))
	e.U64(c.skewSum)
	e.U64(uint64(c.skewMax))
	e.U64(c.delivered)
	e.U64(c.lastRetired)
	e.Int(c.stuckFor)
	e.Bool(c.stalled)
	c.Sys.SnapshotTo(e)
}

// RestoreFrom reloads state written by SnapshotTo into a co-simulation
// built with the same configuration, workload, backend construction,
// and quantum.
func (c *Cosim) RestoreFrom(d *snapshot.Decoder) error {
	bs, ok := c.Net.(BackendStater)
	if !ok {
		return fmt.Errorf("core: backend %q does not support checkpointing", c.Net.Name())
	}
	if err := c.restoreSystem(d); err != nil {
		return err
	}
	return bs.RestoreFrom(d, fullsys.MsgCodec{Tiles: c.Sys.Cfg().Tiles}, nil)
}

// restoreSystem reloads what snapshotSystem wrote.
func (c *Cosim) restoreSystem(d *snapshot.Decoder) error {
	d.Section("cosim")
	c.cycle = sim.Cycle(d.U64())
	c.skewSum = d.U64()
	c.skewMax = sim.Cycle(d.U64())
	c.delivered = d.U64()
	c.lastRetired = d.U64()
	c.stuckFor = d.Int()
	c.stalled = d.Bool()
	if d.Err() != nil {
		return d.Err()
	}
	if sim.Checking {
		// The send closure carries the simcheck inject-order history;
		// a restore can rewind simulated time, so install a fresh one.
		c.Sys.SetSender(SenderFor(c.Net))
	}
	return c.Sys.RestoreFrom(d)
}
