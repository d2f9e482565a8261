// Package core implements the paper's primary contribution: reciprocal
// abstraction for computer-architecture co-simulation.
//
// Two simulators at different fidelities are coupled so that each sees
// only an abstraction of the other. The coarse-grain full-system
// simulator (internal/fullsys) sees the network as a latency oracle:
// it injects messages and receives timestamped deliveries. The
// cycle-level NoC (internal/noc) sees the system as a timestamped
// traffic source. Synchronization happens every quantum of Q target
// cycles: the system simulates [t, t+Q) and buffers its injections;
// the network then simulates the same window and returns deliveries,
// which reach the system at the quantum boundary. Q = 1 degenerates to
// fully synchronous (ground-truth) coupling; larger Q trades a bounded
// delivery skew for speed and for the ability to batch the network
// quantum as one data-parallel kernel — which is what makes the GPU
// coprocessor offload (internal/gpu) profitable.
//
// The reciprocal feedback direction is the Tuned abstract model
// (internal/abstractnet): per-packet (predicted, observed) latency
// pairs collected from the detailed network re-fit the analytical
// model online, so hybrid sampling runs can fall back to the abstract
// model between detailed windows without going back to its cold,
// uncalibrated error.
//
// The mechanism generalizes beyond the network: any component that can
// accept typed requests mid-window, advance to a quantum boundary in
// one batch, and surface timestamped completions fits the Component
// contract, and Cosim schedules all registered components per quantum.
// Memory is the second instance — the directory talks to a memory
// oracle (internal/dram.Oracle) whose detailed, abstract, and
// calibrated implementations mirror the network backend lineup, with
// the same calib.Reciprocal pairing driving online re-fit.
package core

import (
	"repro/internal/abstractnet"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Component is the contract every reciprocally abstracted component
// presents to the quantum scheduler: typed requests go in mid-window
// (through a component-specific enqueue surface), the component is
// advanced to the next quantum boundary in one batch, and timestamped
// completions come back out at the boundary. The network Backend below
// and the memory oracles (internal/dram.Oracle, adapted in cosim.go)
// are its two instances. Components advance over disjoint state; Cosim
// steps them in registry order at every quantum boundary.
type Component interface {
	// Name identifies the component in tables and logs.
	Name() string
	// AdvanceTo simulates through the end of cycle c-1 so that
	// completions timestamped <= c are available — a tail flit
	// switched during cycle c-1 reaches its NI at c (abstract
	// components simply move their clock).
	AdvanceTo(c sim.Cycle)
	// Close stops the component's host workers. Simulated state stays
	// readable, and a later AdvanceTo restarts what it needs, so Close
	// also serves as "go idle" (Cosim.Close).
	Close()
}

// Backend is a network implementation usable for co-simulation: the
// network instance of the Component contract. The coordinator injects
// timestamped packets, advances the backend to a cycle, and drains
// timestamped deliveries.
type Backend interface {
	Component
	// Inject queues a packet created at cycle `at`. Injections at each
	// source must be in nondecreasing time order (asserted under
	// -tags simcheck by the SenderFor coordinator callback).
	Inject(p *noc.Packet, at sim.Cycle)
	// Drain returns newly available deliveries (slice reused).
	Drain() []*noc.Packet
	// Tracker reports latency statistics of drained packets.
	Tracker() *stats.LatencyTracker
	// InFlight reports injected-but-undrained packets.
	InFlight() int
}

// CycleNet is the cycle-level network behaviour the Detailed adapter
// needs; both the virtual-channel network (*noc.Network) and the
// bufferless deflection network (*noc.Deflection) satisfy it.
type CycleNet interface {
	Inject(p *noc.Packet, at sim.Cycle)
	Step()
	// AdvanceTo simulates through the end of cycle c-1, fast-forwarding
	// idle spans when activity gating is enabled (bit-identical to
	// stepping every cycle).
	AdvanceTo(c sim.Cycle)
	// NextEventCycle reports the earliest cycle at or after the current
	// one at which any router must run (false: nothing pending).
	NextEventCycle() (sim.Cycle, bool)
	Cycle() sim.Cycle
	Drain() []*noc.Packet
	Tracker() *stats.LatencyTracker
	InFlight() int
	// FlitsSwitched reports total flits traversed across all router
	// output ports including ejection — the switching-activity measure
	// the observability layer samples per quantum.
	FlitsSwitched() uint64
	// NewPacket and Recycle expose the network's packet free list (see
	// noc.Network.NewPacket); ActivityStats its gating work accounting.
	NewPacket() *noc.Packet
	Recycle(p *noc.Packet)
	ActivityStats() noc.ActivityStats
	// ShardStats reports the shard partition's work accounting (one
	// shard by default).
	ShardStats() noc.ShardStats
	Close()
}

// Detailed adapts a cycle-level network to the Backend contract.
type Detailed struct {
	Net CycleNet
}

// NewDetailed wraps a cycle-level network.
func NewDetailed(net CycleNet) *Detailed { return &Detailed{Net: net} }

// Name implements Backend.
func (d *Detailed) Name() string { return "detailed" }

// Inject implements Backend.
func (d *Detailed) Inject(p *noc.Packet, at sim.Cycle) { d.Net.Inject(p, at) }

// AdvanceTo implements Backend; the network fast-forwards idle spans.
func (d *Detailed) AdvanceTo(c sim.Cycle) { d.Net.AdvanceTo(c) }

// NewPacket implements the coordinator's optional packetSource
// interface, backing SenderFor allocations with the network free list.
func (d *Detailed) NewPacket() *noc.Packet { return d.Net.NewPacket() }

// Recycle implements the optional packetRecycler interface: the
// coordinator hands packets back after applying their deliveries.
func (d *Detailed) Recycle(p *noc.Packet) { d.Net.Recycle(p) }

// ActivityStats reports the wrapped network's gating work accounting.
func (d *Detailed) ActivityStats() noc.ActivityStats { return d.Net.ActivityStats() }

// ShardStats reports the wrapped network's shard-partition accounting.
func (d *Detailed) ShardStats() noc.ShardStats { return d.Net.ShardStats() }

// Drain implements Backend.
func (d *Detailed) Drain() []*noc.Packet { return d.Net.Drain() }

// Tracker implements Backend.
func (d *Detailed) Tracker() *stats.LatencyTracker { return d.Net.Tracker() }

// InFlight implements Backend.
func (d *Detailed) InFlight() int { return d.Net.InFlight() }

// FlitsSwitched reports the wrapped network's switching activity.
func (d *Detailed) FlitsSwitched() uint64 { return d.Net.FlitsSwitched() }

// Close implements Backend.
func (d *Detailed) Close() { d.Net.Close() }

// Abstract adapts the analytical network to the Backend contract.
type Abstract struct {
	Net *abstractnet.Network
}

// NewAbstract wraps an abstract network.
func NewAbstract(net *abstractnet.Network) *Abstract { return &Abstract{Net: net} }

// Name implements Backend.
func (a *Abstract) Name() string { return "abstract-" + a.Net.Model().Name() }

// Inject implements Backend.
func (a *Abstract) Inject(p *noc.Packet, at sim.Cycle) { a.Net.Inject(p, at) }

// AdvanceTo implements Backend.
func (a *Abstract) AdvanceTo(c sim.Cycle) { a.Net.AdvanceTo(c) }

// NewPacket implements the coordinator's optional packetSource
// interface, backing SenderFor allocations with the network free list.
func (a *Abstract) NewPacket() *noc.Packet { return a.Net.NewPacket() }

// Recycle implements the optional packetRecycler interface.
func (a *Abstract) Recycle(p *noc.Packet) { a.Net.Recycle(p) }

// Drain implements Backend.
func (a *Abstract) Drain() []*noc.Packet { return a.Net.Drain() }

// Tracker implements Backend.
func (a *Abstract) Tracker() *stats.LatencyTracker { return a.Net.Tracker() }

// InFlight implements Backend.
func (a *Abstract) InFlight() int { return a.Net.InFlight() }

// Close implements Backend.
func (a *Abstract) Close() {}
