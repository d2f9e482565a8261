package gpu

import (
	"repro/internal/noc"
	"repro/internal/snapshot"
)

// State walks the offload accounting and the wrapped network's
// complete state. The device parameters are construction-time
// configuration covered by the caller's config digest. The kernel
// counters (Kernels, LaunchNs, ComputeNs) are not part of it: they
// account host-side simulator effort, which depends on activity
// gating, and a checkpoint must hold only simulated state so its bytes
// are identical with gating on or off. The target of a decode is a
// backend built over an identically configured network and device
// model.
func (b *Backend) State(c *snapshot.Codec, walk noc.PayloadWalk, track func(*noc.Packet)) {
	c.Section("gpu")
	c.U64(&b.stats.Quanta)
	c.F64(&b.stats.TransferNs)
	c.U64(&b.stats.BytesToDevice)
	c.U64(&b.stats.BytesFromDevice)
	c.U64(&b.pendingInj)
	c.U64(&b.drained)
	if c.Err() != nil {
		return
	}
	if b.net.State(c, walk, track); c.Decoding() && c.Err() == nil {
		b.rederive()
	}
}

// rederive restarts the kernel counters from zero after a successful
// decode, as NewBackend leaves them: they are host-cost telemetry, not
// simulated state.
func (b *Backend) rederive() {
	b.stats.Kernels = 0
	b.stats.LaunchNs = 0
	b.stats.ComputeNs = 0
}
