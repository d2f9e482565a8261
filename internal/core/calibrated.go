package core

import (
	"fmt"

	"repro/internal/abstractnet"
	"repro/internal/calib"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Calibrated is the full reciprocal-feedback integration: the system's
// message timing comes from the tuned analytical model (zero quantum
// skew — the network abstracted as a latency oracle), while every
// packet is also replicated into the detailed cycle-level NoC, which
// simulates the real traffic one quantum behind and feeds measured
// latencies back to re-tune the model. Packet latency statistics are
// the detailed network's — measured on the actual system traffic, not
// on a synthetic approximation — which is precisely the paper's answer
// to in-vacuum component evaluation.
type Calibrated struct {
	detailed Backend
	model    *abstractnet.Tuned //simlint:derived wiring handle; the tuned model's state is snapshotted through timing
	timing   *abstractnet.Network

	// RetunePeriod is how often (in cycles) the model refits.
	RetunePeriod sim.Cycle //simlint:derived run-description config, covered by the snapshot config digest

	// pair is the calibration feed between the two fidelities: shadow
	// packets carry the model prediction in, the detailed network's
	// measured latencies come back as observations, and the shared fit
	// refits once per RetunePeriod.
	pair     *calib.Reciprocal[*noc.Packet]
	shadowed uint64

	// shadowSrc and shadowSink are the detailed backend's packet free
	// list, when it has one: shadows come from it and go back once
	// observed.
	shadowSrc  packetSource   //simlint:derived re-resolved from the detailed backend's capabilities by NewCalibrated
	shadowSink packetRecycler //simlint:derived re-resolved from the detailed backend's capabilities by NewCalibrated
}

// NewCalibrated builds the calibrated backend over a detailed backend
// and a tuned model.
func NewCalibrated(detailed Backend, model *abstractnet.Tuned, retunePeriod sim.Cycle) (*Calibrated, error) {
	if retunePeriod < 1 {
		return nil, fmt.Errorf("core: retune period must be >= 1, got %d", retunePeriod)
	}
	c := &Calibrated{
		detailed:     detailed,
		model:        model,
		timing:       abstractnet.NewNetwork(model),
		RetunePeriod: retunePeriod,
		pair:         calib.NewReciprocal[*noc.Packet](model.Fit(), retunePeriod),
	}
	c.shadowSrc, _ = detailed.(packetSource)
	c.shadowSink, _ = detailed.(packetRecycler)
	return c, nil
}

// Name implements Backend.
func (c *Calibrated) Name() string { return "calibrated" }

// Inject implements Backend: the original packet is timed by the
// model; a shadow copy carries the measurement through the detailed
// network.
func (c *Calibrated) Inject(p *noc.Packet, at sim.Cycle) {
	shadow := newPacket(c.shadowSrc)
	shadow.Src, shadow.Dst, shadow.VNet, shadow.Class, shadow.Size = p.Src, p.Dst, p.VNet, p.Class, p.Size
	c.timing.Inject(p, at)
	c.pair.Predict(shadow, float64(p.DeliveredAt-p.CreatedAt))
	c.detailed.Inject(shadow, at)
	c.shadowed++
}

// AdvanceTo implements Backend. The timing side advances every call
// (the system consults the model inline, with no delivery skew); the
// shadow detailed network advances one RetunePeriod-sized batch at a
// time — the batching that makes its GPU offload profitable — and its
// drained observations re-tune the model.
func (c *Calibrated) AdvanceTo(cy sim.Cycle) {
	c.timing.AdvanceTo(cy)
	if !c.pair.Due(cy) {
		return
	}
	c.detailed.AdvanceTo(cy)
	for _, p := range c.detailed.Drain() {
		// Observe drops the pairing entry (a shadow restored without one
		// has none) and the tracker recorded at Drain: the last
		// reference is this one.
		c.pair.Observe(p, float64(p.TotalLatency()))
		if c.shadowSink != nil {
			c.shadowSink.Recycle(p)
		}
	}
	c.pair.MaybeRetune(cy)
}

// Drain implements Backend with the system-visible (model-timed)
// deliveries.
func (c *Calibrated) Drain() []*noc.Packet { return c.timing.Drain() }

// NewPacket implements the coordinator's optional packetSource
// interface with the timing network's free list: the model-timed
// original lives in the timing network alone — the pairing is keyed
// by its shadow — so nothing retains it past Deliver.
func (c *Calibrated) NewPacket() *noc.Packet { return c.timing.NewPacket() }

// Recycle implements the optional packetRecycler interface.
func (c *Calibrated) Recycle(p *noc.Packet) { c.timing.Recycle(p) }

// Tracker implements Backend with the DETAILED network's measured
// statistics: the reported packet latencies come from cycle-level
// simulation of the system's real traffic.
func (c *Calibrated) Tracker() *stats.LatencyTracker { return c.detailed.Tracker() }

// TimingTracker reports the model-side latency statistics (what the
// system experienced).
func (c *Calibrated) TimingTracker() *stats.LatencyTracker { return c.timing.Tracker() }

// Model exposes the tuned model (tests inspect the fit).
func (c *Calibrated) Model() *abstractnet.Tuned { return c.model }

// InFlight implements Backend; system progress depends on the timing
// side only.
func (c *Calibrated) InFlight() int { return c.timing.InFlight() }

// Close implements Backend.
func (c *Calibrated) Close() { c.detailed.Close() }
