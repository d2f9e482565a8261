package core

import (
	"fmt"

	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// BackendStater is implemented by network backends that support
// checkpointing. track, when non-nil, observes every decoded in-flight
// packet that carries a message, so the message can be checked.
type BackendStater interface {
	State(c *snapshot.Codec, track func(*noc.Packet))
}

// State implements BackendStater for the tuned-model backend, under
// each schedule's own section and walk order. The tuned model's state
// is carried inside the abstract network's (they share the object), so
// it is not walked separately. A calibrated shadow network's packets
// carry no message, so track does not see them; its injection count
// leads the section, and decoding checks it against the restored
// network's. Every decoded prediction must name a packet in flight in
// the detailed network, whose state precedes the pairing's.
func (p *Paired) State(c *snapshot.Codec, track func(*noc.Packet)) {
	inFlight := make(map[uint64]bool)
	if p.shadows() {
		c.Section("calibrated")
		shadowed := p.detailed.Injected()
		c.U64(&shadowed)
		p.abstract.State(c, track)
		p.detailed.State(c, func(pk *noc.Packet) { inFlight[pk.ID] = true })
		if c.Decoding() && c.Err() == nil && shadowed != p.detailed.Injected() {
			c.Failf("%d packets shadowed, but the detailed network admitted %d", shadowed, p.detailed.Injected())
		}
	} else {
		c.Section("hybrid")
		p.tracker.State(c)
		p.detailed.State(c, func(pk *noc.Packet) {
			inFlight[pk.ID] = true
			if track != nil {
				track(pk)
			}
		})
		p.abstract.State(c, track)
	}
	p.pair.State(c, func(c *snapshot.Codec, id uint64) {
		if !inFlight[id] {
			c.Failf("prediction refers to packet %d, which is not in flight", id)
		}
	})
	if c.Decoding() && c.Err() == nil {
		p.rederive()
	}
}

// rederive empties the drain scratch after a successful decode, as
// the constructors leave it.
func (p *Paired) rederive() { p.drainBuf = p.drainBuf[:0] }

// State walks the full co-simulation state: coordinator counters, the
// complete system simulator, and the network backend with all
// in-flight packets. Host wall-time accounting is deliberately
// excluded — it restarts at zero on resume — so equal target states
// always serialize to equal bytes. Decoding, the target must have been
// built with the same configuration, workload, backend construction,
// and quantum. It fails when the backend does not support
// checkpointing.
func (cs *Cosim) State(c *snapshot.Codec) error { return cs.state(c, true) }

// state is the one description State walks: the coordinator counters
// and the system simulator, then — withNet — the backend. On a
// quiescent network the first part is the whole state, which is what
// ForkInto carries across backends.
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
		// A system packet's Kind is its message type plus one (pack).
		bs.State(c, func(p *noc.Packet) {
			if !fullsys.MsgType(p.Kind - 1).Valid() {
				c.Failf("packet kind %d names no message type", p.Kind)
			}
		})
	}
	return c.Err()
}
