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
// model online. Paired joins the two networks under a schedule: a
// hybrid run falls back to the tuned model between detailed sample
// windows without going back to its cold, uncalibrated error, and a
// calibrated run lets the tuned model time every packet while the
// detailed network shadows them all.
//
// The mechanism generalizes beyond the network: any component that can
// accept typed requests mid-window, advance to a quantum boundary in
// one batch, and surface timestamped completions fits the Component
// contract, and Cosim schedules all registered components per quantum.
// Memory is the second instance — the directory talks to a memory
// oracle (internal/dram.Oracle) whose detailed, abstract, and
// calibrated implementations mirror the network backend lineup, with
// the same calib.Reciprocal pairing driving online re-fit.
//
// There are no adapters between a network and the coordinator: each
// packet network is a Backend as it stands, and the coordinator draws
// every packet it injects from the backend's free list and hands it
// back after delivery (Backend.NewPacket, Backend.Recycle).
//
// Messages cross both component boundaries as values. A system message
// travels in its packet's fixed payload (Kind, Line, Value beside the
// endpoints), which SenderFor fills and Step reads back; a memory
// access is a dram.Request holding the requester's tag and a data
// word, and its completion comes back as a dram.Completion. Nothing
// crossing either boundary is boxed or carries a closure, so there is
// nothing to rebuild when a checkpoint is restored.
package core

import (
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Component is the contract every reciprocally abstracted component
// presents to the quantum scheduler: requests go in mid-window as
// values (through a component-specific enqueue surface), the component
// is advanced to the next quantum boundary in one batch, and
// timestamped completions come back out at the boundary as values. The
// network Backend below and the memory oracles (internal/dram.Oracle,
// adapted in cosim.go) are its two instances. Components advance over disjoint state; Cosim
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
// timestamped deliveries. The packet networks are backends themselves
// — noc.Network and abstractnet.Network, whose shared noc.Ledger
// provides the counting, latency and free-list half of the contract —
// and the composite backends (Paired, Recorder) are built over them.
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
	// NewPacket returns a zeroed packet for the coordinator to inject,
	// from the backend's free list; Recycle takes a drained packet
	// back once its delivery has been applied. A backend may reuse a
	// recycled packet for any later NewPacket, so it must not hold a
	// drained packet past the Drain that returned it.
	NewPacket() *noc.Packet
	Recycle(p *noc.Packet)
}
