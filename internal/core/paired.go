package core

import (
	"fmt"

	"repro/internal/abstractnet"
	"repro/internal/calib"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Paired is the tuned-model backend: a detailed cycle-level network
// and an abstract network over a Tuned model, joined by a
// calib.Reciprocal pairing whose (predicted, observed) latencies refit
// the model once per Period. Its schedule is data, and it gives the
// paper's two tuned-model integrations:
//
//   - hybrid (SampleLen > 0): packets injected in the first SampleLen
//     cycles of each Period take the detailed network, whose measured
//     latencies re-tune the model; the rest take the tuned model.
//     Accuracy lands between the pure abstract and pure reciprocal
//     modes at a fraction of the detailed simulation cost.
//   - calibrated (SampleLen == 0): the tuned model times every packet
//     (zero quantum skew: the network as a latency oracle), while a
//     shadow copy of every packet runs through the detailed network,
//     which advances one Period-sized batch at a time and feeds its
//     measurements back. The reported latency statistics are the
//     detailed network's, measured on the system's real traffic — the
//     paper's answer to in-vacuum component evaluation.
type Paired struct {
	detailed *noc.Network
	abstract *abstractnet.Network
	tuned    *abstractnet.Tuned //simlint:derived wiring handle; the tuned model's state is snapshotted through abstract

	// Period is the retune period; cycles with (t % Period) < SampleLen
	// route to the detailed network.
	Period, SampleLen sim.Cycle //simlint:derived run-description config, covered by the snapshot config digest

	pair     *calib.Reciprocal
	tracker  *stats.LatencyTracker // hybrid's merged statistics; nil when calibrated
	drainBuf []*noc.Packet         //simlint:derived drain scratch, emptied by rederive
}

// NewHybrid builds the sampling backend: detailed timing for the first
// sampleLen cycles of every period, the tuned model for the rest.
func NewHybrid(detailed *noc.Network, tuned *abstractnet.Tuned, period, sampleLen sim.Cycle) (*Paired, error) {
	if sampleLen < 1 || period < sampleLen {
		return nil, fmt.Errorf("core: invalid hybrid schedule period=%d sample=%d", period, sampleLen)
	}
	p := newPaired(detailed, tuned, period, sampleLen)
	p.tracker = stats.NewLatencyTracker(4, 512)
	return p, nil
}

// NewCalibrated builds the model-timed, detailed-shadowed backend,
// refitting the model every retunePeriod cycles.
func NewCalibrated(detailed *noc.Network, tuned *abstractnet.Tuned, retunePeriod sim.Cycle) (*Paired, error) {
	if retunePeriod < 1 {
		return nil, fmt.Errorf("core: retune period must be >= 1, got %d", retunePeriod)
	}
	return newPaired(detailed, tuned, retunePeriod, 0), nil
}

func newPaired(detailed *noc.Network, tuned *abstractnet.Tuned, period, sampleLen sim.Cycle) *Paired {
	return &Paired{
		detailed:  detailed,
		abstract:  abstractnet.NewNetwork(tuned),
		tuned:     tuned,
		Period:    period,
		SampleLen: sampleLen,
		pair:      calib.NewReciprocal(tuned.Fit(), period),
	}
}

// shadows reports the calibrated schedule: no sample window, the
// detailed network shadowing every packet instead.
func (p *Paired) shadows() bool { return p.SampleLen == 0 }

// Name implements Backend.
func (p *Paired) Name() string {
	if p.shadows() {
		return "calibrated"
	}
	return fmt.Sprintf("hybrid(%d/%d)", p.SampleLen, p.Period)
}

// Inject implements Backend. A packet in a sample window takes the
// detailed network with the tuned model's prediction recorded, so its
// delivery becomes an observation. Any other packet is timed by the
// model; when calibrated, a shadow copy drawn from the detailed
// network's free list carries the prediction through the detailed
// network and goes back to that list once observed. Predictions are
// keyed by the ID the detailed network assigns at Inject, which no
// later packet reuses, so they are recorded after it.
func (p *Paired) Inject(pk *noc.Packet, at sim.Cycle) {
	if at%p.Period < p.SampleLen {
		pred := p.tuned.Latency(pk.Src, pk.Dst, pk.Size, at)
		p.detailed.Inject(pk, at)
		p.pair.Predict(pk.ID, pred)
		return
	}
	p.abstract.Inject(pk, at)
	if p.shadows() {
		shadow := p.detailed.NewPacket()
		shadow.Src, shadow.Dst, shadow.VNet, shadow.Class, shadow.Size = pk.Src, pk.Dst, pk.VNet, pk.Class, pk.Size
		p.detailed.Inject(shadow, at)
		p.pair.Predict(shadow.ID, float64(pk.DeliveredAt-pk.CreatedAt))
	}
}

// AdvanceTo implements Backend, re-tuning the model at period
// boundaries. The model side advances every call. A hybrid's detailed
// side does too; a calibrated shadow network advances only when the
// pairing is due, one Period-sized batch at a time, and its drained
// observations are recycled here.
func (p *Paired) AdvanceTo(c sim.Cycle) {
	p.abstract.AdvanceTo(c)
	if p.shadows() {
		if !p.pair.Due(c) {
			return
		}
		p.detailed.AdvanceTo(c)
		for _, pk := range p.detailed.Drain() {
			p.pair.Observe(pk.ID, float64(pk.TotalLatency()))
			p.detailed.Recycle(pk)
		}
	} else {
		p.detailed.AdvanceTo(c)
	}
	p.pair.MaybeRetune(c)
}

// Drain implements Backend with the system-visible deliveries: the
// model-timed ones when calibrated; when hybrid, both sides merged,
// the detailed ones fed back into the tuned model.
func (p *Paired) Drain() []*noc.Packet {
	if p.shadows() {
		return p.abstract.Drain()
	}
	out := p.drainBuf[:0]
	for _, pk := range p.detailed.Drain() {
		p.pair.Observe(pk.ID, float64(pk.TotalLatency()))
		p.tracker.Record(pk.Class, float64(pk.QueueingLatency()), float64(pk.NetworkLatency()), pk.Hops)
		out = append(out, pk)
	}
	for _, pk := range p.abstract.Drain() {
		p.tracker.Record(pk.Class, float64(pk.QueueingLatency()), float64(pk.NetworkLatency()), pk.Hops)
		out = append(out, pk)
	}
	p.drainBuf = out
	return out
}

// NewPacket implements Backend with the abstract network's free list.
// A system packet may take either side, and neither keeps it past
// Drain.
func (p *Paired) NewPacket() *noc.Packet { return p.abstract.NewPacket() }

// Recycle implements Backend.
func (p *Paired) Recycle(pk *noc.Packet) { p.abstract.Recycle(pk) }

// Tracker implements Backend: hybrid's merged statistics, or the
// calibrated shadow network's, measured by cycle-level simulation of
// the system's real traffic.
func (p *Paired) Tracker() *stats.LatencyTracker {
	if p.shadows() {
		return p.detailed.Tracker()
	}
	return p.tracker
}

// InFlight implements Backend. A calibrated run's progress depends on
// the model side only.
func (p *Paired) InFlight() int {
	if p.shadows() {
		return p.abstract.InFlight()
	}
	return p.detailed.InFlight() + p.abstract.InFlight()
}

// DetailedShare reports the fraction of a hybrid run's packets routed
// to the detailed network so far.
func (p *Paired) DetailedShare() float64 {
	d := float64(p.detailed.Tracker().Count())
	a := float64(p.abstract.Tracker().Count())
	if d+a == 0 {
		return 0
	}
	return d / (d + a)
}

// Close implements Backend.
func (p *Paired) Close() { p.detailed.Close() }

// SetRetuneSink implements RetuneObservable.
func (p *Paired) SetRetuneSink(s calib.RetuneSink) { p.pair.SetSink(s) }

// ActivityStats reports the detailed side's activity gating: it does
// most of the run's work, so its NoC numbers are the run's.
func (p *Paired) ActivityStats() noc.ActivityStats { return p.detailed.ActivityStats() }

// FlitsSwitched reports the detailed side's switching activity.
func (p *Paired) FlitsSwitched() uint64 { return p.detailed.FlitsSwitched() }
