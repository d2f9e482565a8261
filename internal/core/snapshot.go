package core

import (
	"fmt"

	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// BackendStater is implemented by network backends that support
// checkpointing. pc describes packet payloads (the system's Msg
// values); track, when non-nil, observes every decoded in-flight
// packet so pointer-keyed caller state can be rebuilt.
type BackendStater interface {
	State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*noc.Packet))
}

// stateOf walks a backend nested in another, which must support
// checkpointing: both cycle-level networks and every Backend in this
// module do.
func stateOf(c *snapshot.Codec, backend interface{}, pc snapshot.PayloadCodec, track func(*noc.Packet)) {
	bs, ok := backend.(BackendStater)
	if !ok {
		c.Failf("backend %T does not support checkpointing", backend)
		return
	}
	bs.State(c, pc, track)
}

// State implements BackendStater for the cycle-level adapter.
func (d *Detailed) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*noc.Packet)) {
	stateOf(c, d.Net, pc, track)
}

// State implements BackendStater for the analytical adapter.
func (a *Abstract) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*noc.Packet)) {
	a.Net.State(c, pc, track)
}

// packetLess orders packets by ID for byte-stable snapshots of
// packet-keyed calibration state.
func packetLess(a, b *noc.Packet) bool { return a.ID < b.ID }

// packetKey walks a packet-keyed calibration entry as the packet ID.
// The packets are live in the network whose state precedes this in the
// stream, so decoding resolves the ID against byID, the in-flight
// packets that network's track callback collected.
func packetKey(byID map[uint64]*noc.Packet) func(*snapshot.Codec, **noc.Packet) {
	return func(c *snapshot.Codec, p **noc.Packet) {
		var id uint64
		if !c.Decoding() {
			id = (*p).ID
		}
		if c.U64(&id); c.Decoding() && c.Err() == nil {
			if *p = byID[id]; *p == nil {
				c.Failf("prediction refers to packet %d, which is not in flight", id)
			}
		}
	}
}

// State implements BackendStater for the sampling backend. The tuned
// model's state is carried inside the abstract network's (they share
// the object), so it is not walked separately.
func (h *Hybrid) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*noc.Packet)) {
	c.Section("hybrid")
	h.tracker.State(c)
	byID := make(map[uint64]*noc.Packet)
	stateOf(c, h.detailed, pc, func(p *noc.Packet) {
		byID[p.ID] = p
		if track != nil {
			track(p)
		}
	})
	h.abstract.State(c, pc, track)
	h.pair.State(c, packetLess, packetKey(byID))
	if c.Decoding() && c.Err() == nil {
		h.rederive()
	}
}

// rederive empties the drain scratch after a successful decode, as
// NewHybrid leaves it.
func (h *Hybrid) rederive() { h.drainBuf = h.drainBuf[:0] }

// State implements BackendStater for the calibrated backend. The
// timing network carries the shared tuned model's state; the shadow
// detailed network's packets have no payloads, so it is walked with a
// nil codec regardless of pc.
func (cb *Calibrated) State(c *snapshot.Codec, pc snapshot.PayloadCodec, track func(*noc.Packet)) {
	c.Section("calibrated")
	c.U64(&cb.shadowed)
	cb.timing.State(c, pc, track)
	byID := make(map[uint64]*noc.Packet)
	stateOf(c, cb.detailed, nil, func(p *noc.Packet) { byID[p.ID] = p })
	cb.pair.State(c, packetLess, packetKey(byID))
}

// SnapshotTo writes the full co-simulation state: coordinator
// counters, the complete system simulator, and the network backend
// with all in-flight packets. Host wall-time accounting is
// deliberately excluded — it restarts at zero on resume — so equal
// target states always serialize to equal bytes. It fails when the
// backend does not support checkpointing.
func (cs *Cosim) SnapshotTo(e *snapshot.Encoder) error { return cs.state(e.Codec(), true) }

// RestoreFrom reloads state written by SnapshotTo into a co-simulation
// built with the same configuration, workload, backend construction,
// and quantum.
func (cs *Cosim) RestoreFrom(d *snapshot.Decoder) error { return cs.state(d.Codec(), true) }

// state is the one description SnapshotTo and RestoreFrom walk: the
// coordinator counters and the system simulator, then — withNet — the
// backend. On a quiescent network the first part is the whole state,
// which is what ForkInto carries across backends.
func (cs *Cosim) state(c *snapshot.Codec, withNet bool) error {
	bs, ok := cs.Net.(BackendStater)
	if withNet && !ok {
		return fmt.Errorf("core: backend %q does not support checkpointing", cs.Net.Name())
	}
	c.Section("cosim")
	snapshot.As64(c, &cs.cycle)
	c.U64(&cs.skewSum)
	snapshot.As64(c, &cs.skewMax)
	c.U64(&cs.delivered)
	c.U64(&cs.lastRetired)
	c.Int(&cs.stuckFor)
	c.Bool(&cs.stalled)
	if c.Decoding() && sim.Checking {
		// The send closure carries the simcheck inject-order history;
		// a restore can rewind simulated time, so install a fresh one.
		cs.Sys.SetSender(SenderFor(cs.Net))
	}
	if cs.Sys.State(c); withNet && c.Err() == nil {
		bs.State(c, fullsys.MsgCodec{Tiles: cs.Sys.Cfg().Tiles}, nil)
	}
	return c.Err()
}
