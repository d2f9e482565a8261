// Package abstractnet implements the analytical network models the
// coarse-grain full-system simulator uses when it does not simulate
// the NoC cycle by cycle: a fixed zero-load latency model, a
// contention-aware queueing model, and a tuned model whose
// coefficients are re-fit online from detailed-simulator observations
// — the reciprocal feedback path of the paper.
package abstractnet

import (
	"fmt"
	"math"

	"repro/internal/calib"
	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Params are the timing constants shared by the analytical models;
// they mirror the detailed router configuration so the zero-load
// component is honest and only contention fidelity differs.
type Params struct {
	// RouterCycles is the per-router pipeline delay (RouterStages-1
	// effective cycles in the detailed model, plus switching).
	RouterCycles float64
	// LinkCycles is the per-link traversal delay.
	LinkCycles float64
	// InjectOverhead is the fixed source/sink interface cost.
	InjectOverhead float64
	// QueueFactor scales the per-link M/M/1-style contention term of
	// the contention model.
	QueueFactor float64
	// Window is the utilization-averaging window in cycles.
	Window int
}

// DefaultParams returns constants matching noc.DefaultConfig.
func DefaultParams() Params {
	return Params{
		RouterCycles:   1, // RouterStages(2) - 1
		LinkCycles:     1,
		InjectOverhead: 2,
		QueueFactor:    4,
		Window:         64,
	}
}

// Model estimates packet latency analytically. Its implementations are
// this package's models, each built over a topology.
type Model interface {
	// Name identifies the model in tables and logs.
	Name() string
	// Latency estimates end-to-end latency (cycles) for a packet of
	// the given flit count injected at cycle now. Implementations may
	// update internal load state.
	Latency(src, dst, flits int, now sim.Cycle) float64
	// AdvanceTo moves internal time forward (window rollover).
	AdvanceTo(now sim.Cycle)
	// State walks the model's mutable state for a checkpoint.
	State(c *snapshot.Codec)
	// terminals reports the terminal count of the topology the model is
	// built over: the source ids a Network over it can see.
	terminals() int
}

// Fixed is the zero-load analytical model: hop count times per-hop
// delay, plus serialization, with no contention term. This is the
// most abstract model the paper's baseline corresponds to.
type Fixed struct {
	topo topology.Topology //simlint:derived construction input; the model is stateless over it
	p    Params            //simlint:derived construction input; the model is stateless over it
}

// NewFixed returns a zero-load latency model over topo.
func NewFixed(topo topology.Topology, p Params) *Fixed {
	return &Fixed{topo: topo, p: p}
}

func (f *Fixed) Name() string { return "fixed" }

func (f *Fixed) Latency(src, dst, flits int, now sim.Cycle) float64 {
	hops := float64(f.topo.MinHops(src, dst) + 1)
	return f.p.InjectOverhead + hops*(f.p.RouterCycles+f.p.LinkCycles) + float64(flits-1)
}

func (f *Fixed) AdvanceTo(now sim.Cycle) {}

func (f *Fixed) terminals() int { return f.topo.NumTerminals() }

// Contention adds a per-link queueing term: it accumulates offered
// flits per directed link along each packet's dimension-order path,
// maintains a windowed utilization EWMA, and charges each hop an
// M/M/1-style delay q(u) = QueueFactor * u / (1 - u).
type Contention struct {
	topo  *gridPather //simlint:derived construction input; rebuilt from the topology
	p     Params      //simlint:derived construction input; the restore target is built with the same params
	acc   []float64   // flits offered this window, per directed link
	util  []float64   // EWMA utilization per directed link
	start sim.Cycle   // current window start
	path  []int       //simlint:derived per-call scratch, recomputed for every routed packet
}

// NewContention returns a contention-aware model. The topology must be
// a grid (mesh/torus); other topologies fall back to NewFixed.
func NewContention(topo topology.Topology, p Params) Model {
	g, ok := newGridPather(topo)
	if !ok {
		return NewFixed(topo, p)
	}
	n := g.numLinks()
	return &Contention{
		topo: g,
		p:    p,
		acc:  make([]float64, n),
		util: make([]float64, n),
	}
}

func (c *Contention) Name() string { return "contention" }

func (c *Contention) terminals() int { return c.topo.g.NumTerminals() }

func (c *Contention) AdvanceTo(now sim.Cycle) {
	w := sim.Cycle(c.p.Window)
	for now >= c.start+w {
		inv := 1.0 / float64(w)
		for i := range c.acc {
			// Blend this window's offered load into the EWMA.
			c.util[i] = 0.5*c.util[i] + 0.5*math.Min(c.acc[i]*inv, 1.5)
			c.acc[i] = 0
		}
		c.start += w
	}
}

func (c *Contention) Latency(src, dst, flits int, now sim.Cycle) float64 {
	c.AdvanceTo(now)
	c.path = c.topo.pathLinks(src, dst, c.path[:0])
	lat := c.p.InjectOverhead + float64(flits-1)
	hops := float64(len(c.path) + 1)
	lat += hops * (c.p.RouterCycles + c.p.LinkCycles)
	for _, l := range c.path {
		c.acc[l] += float64(flits)
		u := math.Min(c.util[l], 0.95)
		lat += c.p.QueueFactor * u / (1 - u)
	}
	return lat
}

// Tuned wraps a base model with an affine correction fit from
// detailed-simulator observations: latency = alpha*base + beta. The
// co-simulation coordinator feeds it (predicted, observed) pairs at
// every synchronization quantum; Retune refits by least squares over
// a sliding window. This is the "reciprocal" direction in which the
// detailed component abstracts itself back to the system simulator.
// The fit itself is the generic calib.Affine, shared with the abstract
// memory oracle.
type Tuned struct {
	Base Model

	fit *calib.Affine
}

// NewTuned returns a tuned model wrapping base with an identity
// correction and a sliding observation window of the given size.
func NewTuned(base Model, window int) *Tuned {
	return &Tuned{Base: base, fit: calib.NewAffine(window)}
}

func (t *Tuned) Name() string { return fmt.Sprintf("tuned(%s)", t.Base.Name()) }

func (t *Tuned) AdvanceTo(now sim.Cycle) { t.Base.AdvanceTo(now) }

func (t *Tuned) terminals() int { return t.Base.terminals() }

func (t *Tuned) Latency(src, dst, flits int, now sim.Cycle) float64 {
	lat := t.fit.Apply(t.Base.Latency(src, dst, flits, now))
	if lat < 1 {
		lat = 1
	}
	return lat
}

// Fit exposes the underlying affine correction, so a calibration
// pairing (calib.Reciprocal) can feed it directly.
func (t *Tuned) Fit() *calib.Affine { return t.fit }

// Coeffs reports the current correction coefficients (telemetry,
// tests, tables).
func (t *Tuned) Coeffs() (alpha, beta float64) { return t.fit.Coeffs() }

// Observe records one (base-model prediction, detailed observation)
// latency pair.
func (t *Tuned) Observe(predicted, observed float64) { t.fit.Observe(predicted, observed) }

// Retune refits the affine correction over the observation window.
func (t *Tuned) Retune() { t.fit.Retune() }

// ObservationCount reports how many pairs are in the fit window.
func (t *Tuned) ObservationCount() int { return t.fit.ObservationCount() }
