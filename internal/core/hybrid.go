package core

import (
	"fmt"

	"repro/internal/abstractnet"
	"repro/internal/calib"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Hybrid is the sampling backend of the reciprocal feedback ablation:
// during periodic sample windows packets take the detailed cycle-level
// network, whose observed latencies re-tune the abstract model; between
// windows packets take the (tuned) abstract model. Accuracy lands
// between the pure abstract and pure reciprocal modes at a fraction of
// the detailed simulation cost.
type Hybrid struct {
	detailed Backend
	abstract *abstractnet.Network
	tuned    *abstractnet.Tuned //simlint:derived wiring handle; the tuned model's state is snapshotted through abstract

	// Period and SampleLen define the sampling schedule in cycles:
	// cycles with (t % Period) < SampleLen route to the detailed model.
	Period, SampleLen sim.Cycle //simlint:derived run-description config, covered by the snapshot config digest

	// pair is the calibration feed between the two fidelities: sampled
	// packets' predictions in, detailed observations out, one refit of
	// the shared fit per Period.
	pair     *calib.Reciprocal[*noc.Packet]
	tracker  *stats.LatencyTracker
	drainBuf []*noc.Packet //simlint:derived drain scratch, emptied by rederive
}

// NewHybrid builds a hybrid backend over a detailed backend and a
// tuned abstract model.
func NewHybrid(detailed Backend, tuned *abstractnet.Tuned, period, sampleLen sim.Cycle) (*Hybrid, error) {
	if sampleLen < 1 || period < sampleLen {
		return nil, fmt.Errorf("core: invalid hybrid schedule period=%d sample=%d", period, sampleLen)
	}
	return &Hybrid{
		detailed:  detailed,
		abstract:  abstractnet.NewNetwork(tuned),
		tuned:     tuned,
		Period:    period,
		SampleLen: sampleLen,
		pair:      calib.NewReciprocal[*noc.Packet](tuned.Fit(), period),
		tracker:   stats.NewLatencyTracker(4, 512),
	}, nil
}

// Name implements Backend.
func (h *Hybrid) Name() string {
	return fmt.Sprintf("hybrid(%d/%d)", h.SampleLen, h.Period)
}

// inSample reports whether cycle t routes to the detailed model.
func (h *Hybrid) inSample(t sim.Cycle) bool { return t%h.Period < h.SampleLen }

// Inject implements Backend, routing by the sampling schedule. For
// detailed-bound packets the tuned model's prediction is recorded so
// the delivery can become a calibration observation.
func (h *Hybrid) Inject(p *noc.Packet, at sim.Cycle) {
	if h.inSample(at) {
		h.pair.Predict(p, h.tuned.Latency(p.Src, p.Dst, p.Size, at))
		h.detailed.Inject(p, at)
		return
	}
	h.abstract.Inject(p, at)
}

// AdvanceTo implements Backend, advancing both sides and re-tuning the
// abstract model at period boundaries.
func (h *Hybrid) AdvanceTo(c sim.Cycle) {
	h.detailed.AdvanceTo(c)
	h.abstract.AdvanceTo(c)
	h.pair.MaybeRetune(c)
}

// Drain implements Backend, merging both sides' deliveries and feeding
// detailed observations back into the tuned model.
func (h *Hybrid) Drain() []*noc.Packet {
	out := h.drainBuf[:0]
	for _, p := range h.detailed.Drain() {
		h.pair.Observe(p, float64(p.TotalLatency()))
		h.tracker.Record(p.Class, float64(p.QueueingLatency()), float64(p.NetworkLatency()), p.Hops)
		out = append(out, p)
	}
	for _, p := range h.abstract.Drain() {
		h.tracker.Record(p.Class, float64(p.QueueingLatency()), float64(p.NetworkLatency()), p.Hops)
		out = append(out, p)
	}
	h.drainBuf = out
	return out
}

// NewPacket implements Backend with the abstract side's free list. A
// packet may take either side, and neither keeps it past Drain: the
// pairing drops a sampled packet's prediction when Drain observes it.
func (h *Hybrid) NewPacket() *noc.Packet { return h.abstract.NewPacket() }

// Recycle implements Backend.
func (h *Hybrid) Recycle(p *noc.Packet) { h.abstract.Recycle(p) }

// Tracker implements Backend with the merged latency statistics.
func (h *Hybrid) Tracker() *stats.LatencyTracker { return h.tracker }

// InFlight implements Backend.
func (h *Hybrid) InFlight() int { return h.detailed.InFlight() + h.abstract.InFlight() }

// DetailedShare reports the fraction of packets routed to the detailed
// model so far.
func (h *Hybrid) DetailedShare() float64 {
	d := float64(h.detailed.Tracker().Count())
	a := float64(h.abstract.Tracker().Count())
	if d+a == 0 {
		return 0
	}
	return d / (d + a)
}

// Close implements Backend.
func (h *Hybrid) Close() { h.detailed.Close() }

// ActivityStats reports the detailed side's activity gating.
func (h *Hybrid) ActivityStats() noc.ActivityStats { return detailedActivity(h.detailed) }

// FlitsSwitched reports the detailed side's switching activity.
func (h *Hybrid) FlitsSwitched() uint64 { return detailedFlits(h.detailed) }
