// Package noc implements the cycle-level network-on-chip simulator:
// virtual-channel wormhole routers with a canonical RC/VA/SA/ST
// pipeline, credit-based flow control, configurable link latency, and
// per-terminal network interfaces with per-virtual-network injection
// queues.
//
// The per-cycle state update is organized as five phases (ingress,
// route computation, VC allocation, switch allocation, traversal),
// each of which writes only router-owned state, so the same model runs
// bit-identically however its routers are partitioned across workers
// (shard.go) — the property the GPU-coprocessor experiments rely on.
package noc

import (
	"fmt"

	"repro/internal/noc/topology"
)

// Config holds the router microarchitecture parameters.
type Config struct {
	// VNets is the number of virtual networks. Message classes that
	// may depend on one another (request/response/control in a
	// coherence protocol) must use distinct virtual networks to avoid
	// protocol deadlock.
	VNets int
	// VCsPerVNet is the number of virtual channels per port dedicated
	// to each virtual network. Must be a multiple of the routing
	// function's VCSets().
	VCsPerVNet int
	// BufDepth is the flit capacity of each virtual-channel buffer.
	BufDepth int
	// LinkLatency is the flit traversal latency of every link in
	// cycles (>= 1).
	LinkLatency int
	// CreditLatency is the credit return latency in cycles (>= 1).
	CreditLatency int
	// RouterStages is the router pipeline depth: a flit becomes
	// eligible for switching RouterStages-1 cycles after it is written
	// into an input buffer. 1 models an aggressive single-cycle
	// router; the default 2 models a two-stage router.
	RouterStages int
	// DisableGating turns off activity gating and idle-cycle
	// fast-forward, forcing the exhaustive every-router-every-cycle
	// sweep. Simulated results are bit-identical either way; this
	// escape hatch exists so regressions can be bisected against the
	// exhaustive sweep (cmd/cosim -no-fastforward).
	DisableGating bool
}

// DefaultConfig returns the baseline router used throughout the
// evaluation: 3 virtual networks × 2 VCs, 4-flit buffers, 1-cycle
// links, 2-stage routers.
func DefaultConfig() Config {
	return Config{
		VNets:         3,
		VCsPerVNet:    2,
		BufDepth:      4,
		LinkLatency:   1,
		CreditLatency: 1,
		RouterStages:  2,
	}
}

// TotalVCs reports the virtual channels per port across all virtual
// networks.
func (c Config) TotalVCs() int { return c.VNets * c.VCsPerVNet }

// Validate checks the configuration against a routing function's
// virtual-channel-set requirement.
func (c Config) Validate(r topology.Routing) error {
	if c.VNets < 1 {
		return fmt.Errorf("noc: VNets must be >= 1, got %d", c.VNets)
	}
	if c.VCsPerVNet < 1 {
		return fmt.Errorf("noc: VCsPerVNet must be >= 1, got %d", c.VCsPerVNet)
	}
	if c.TotalVCs() > maxVCs {
		return fmt.Errorf("noc: VNets*VCsPerVNet = %d VCs per port, limit %d (one mask bit each)", c.TotalVCs(), maxVCs)
	}
	if c.BufDepth < 1 {
		return fmt.Errorf("noc: BufDepth must be >= 1, got %d", c.BufDepth)
	}
	if c.LinkLatency < 1 {
		return fmt.Errorf("noc: LinkLatency must be >= 1, got %d", c.LinkLatency)
	}
	if c.CreditLatency < 1 {
		return fmt.Errorf("noc: CreditLatency must be >= 1, got %d", c.CreditLatency)
	}
	if c.RouterStages < 1 {
		return fmt.Errorf("noc: RouterStages must be >= 1, got %d", c.RouterStages)
	}
	if sets := r.VCSets(); c.VCsPerVNet%sets != 0 {
		return fmt.Errorf("noc: VCsPerVNet (%d) must be a multiple of routing %q VC sets (%d)",
			c.VCsPerVNet, r.Name(), sets)
	}
	if k := r.MaxChoices(); k > maxHops {
		return fmt.Errorf("noc: routing %q may return %d next hops, limit %d (the per-VC route cache)", r.Name(), k, maxHops)
	}
	return nil
}
