// Package repro is a from-scratch Go reproduction of "Reciprocal
// abstraction for computer architecture co-simulation" (Moeng, Jones,
// Melhem — ISPASS 2015).
//
// It couples a coarse-grain full-system simulator (in-order cores,
// MESI directory coherence, memory controllers) to a cycle-level
// network-on-chip simulator through quantum-based reciprocal
// abstraction, and prices offloading the NoC quantum to a modelled GPU
// coprocessor (internal/gpu). This package is the public facade:
// configuration and constructors that wire the internal subsystems
// together. See DESIGN.md for the system inventory and EXPERIMENTS.md
// for the reproduced results.
//
// Quickstart:
//
//	cfg := repro.DefaultConfig(64)
//	wl := workload.NewFFT(64, 2000, 42)
//	cs, _ := repro.BuildCosim(cfg, repro.ModeReciprocal, wl)
//	res := cs.Run(2_000_000)
//	fmt.Printf("finished in %d cycles, avg packet latency %.1f\n",
//		res.ExecCycles, res.AvgLatency)
package repro

import (
	"fmt"

	"repro/internal/abstractnet"
	"repro/internal/core"
	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// Mode selects the network abstraction for a co-simulation run.
type Mode string

// Co-simulation modes.
const (
	// ModeSynchronous couples the detailed NoC cycle by cycle
	// (quantum 1): the accuracy ground truth.
	ModeSynchronous Mode = "synchronous"
	// ModeAbstract uses the zero-load analytical network model — the
	// paper's baseline abstraction.
	ModeAbstract Mode = "abstract"
	// ModeContention uses the contention-aware analytical model.
	ModeContention Mode = "contention"
	// ModeReciprocal couples the detailed NoC at the configured
	// quantum — the paper's contribution.
	ModeReciprocal Mode = "reciprocal"
	// ModeHybrid samples the detailed NoC periodically and re-tunes
	// the abstract model from its observations (reciprocal feedback).
	ModeHybrid Mode = "hybrid"
	// ModeCalibrated is the full reciprocal-feedback integration: the
	// system consults the continuously re-tuned latency model (zero
	// delivery skew) while the detailed NoC shadows all traffic for
	// measurement and calibration.
	ModeCalibrated Mode = "calibrated"
)

// Modes lists all co-simulation modes in evaluation order.
func Modes() []Mode {
	return []Mode{ModeSynchronous, ModeAbstract, ModeContention,
		ModeReciprocal, ModeHybrid, ModeCalibrated}
}

// Config gathers the target-machine and simulator parameters.
type Config struct {
	// Tiles is the number of tiles / terminals (cores).
	Tiles int
	// MeshW and MeshH give the router grid; zero derives the most
	// square factorization of Tiles/Concentration.
	MeshW, MeshH int
	// Concentration is terminals per router (>= 1).
	Concentration int
	// Torus selects wraparound links with dateline routing.
	Torus bool
	// Routing selects the routing function: "xy" (default), "yx",
	// "oddeven" (mesh only); tori always use dateline dimension-order.
	Routing string

	// Router holds the NoC microarchitecture parameters.
	Router noc.Config
	// System holds the full-system parameters.
	System fullsys.Config
	// Abstract holds the analytical model constants.
	Abstract abstractnet.Params

	// Quantum is the reciprocal-abstraction synchronization interval.
	Quantum int
	// NocWorkers > 1 shards the cycle-level NoC spatially and steps the
	// shards concurrently inside each quantum (cmd/cosim -noc-workers).
	// Applies in every detailed mode; 0 or 1 steps one shard on the
	// calling goroutine. Results are bit-identical either way: sharding
	// is a speed knob, never an accuracy knob, and shard assignment is
	// derived state that never enters checkpoints.
	NocWorkers int
	// HybridPeriod and HybridSample schedule hybrid mode in cycles.
	HybridPeriod, HybridSample int
	// DisableGating forces the exhaustive every-router-every-cycle NoC
	// sweep in all detailed modes (cmd/cosim -no-fastforward), fanning
	// out to Router.DisableGating. Simulated results are bit-identical
	// either way; this exists so perf regressions can be bisected
	// against the exhaustive sweep.
	DisableGating bool
}

// DefaultConfig returns the evaluation's baseline target machine for
// the given tile count.
func DefaultConfig(tiles int) Config {
	return Config{
		Tiles:         tiles,
		Concentration: 1,
		Routing:       "xy",
		Router:        noc.DefaultConfig(),
		System:        fullsys.DefaultConfig(tiles),
		Abstract:      abstractnet.DefaultParams(),
		Quantum:       64,
		HybridPeriod:  4096,
		HybridSample:  1024,
	}
}

// gridDims derives the router grid for the configured tile count.
func (c Config) gridDims() (w, h int, err error) {
	if c.Concentration < 1 {
		return 0, 0, fmt.Errorf("repro: concentration must be >= 1")
	}
	if c.Tiles%c.Concentration != 0 {
		return 0, 0, fmt.Errorf("repro: tiles (%d) not divisible by concentration (%d)", c.Tiles, c.Concentration)
	}
	routers := c.Tiles / c.Concentration
	if c.MeshW > 0 && c.MeshH > 0 {
		if c.MeshW*c.MeshH != routers {
			return 0, 0, fmt.Errorf("repro: %dx%d grid does not hold %d routers", c.MeshW, c.MeshH, routers)
		}
		return c.MeshW, c.MeshH, nil
	}
	// Most square factorization with w >= h.
	h = 1
	for f := 1; f*f <= routers; f++ {
		if routers%f == 0 {
			h = f
		}
	}
	return routers / h, h, nil
}

// BuildTopology constructs the configured topology and routing.
func BuildTopology(cfg Config) (topology.Topology, topology.Routing, error) {
	w, h, err := cfg.gridDims()
	if err != nil {
		return nil, nil, err
	}
	if cfg.Torus {
		if w < 3 {
			return nil, nil, fmt.Errorf("repro: a %dx%d torus is too narrow; dateline routing needs width >= 3", w, h)
		}
		t := topology.NewTorus(w, h, cfg.Concentration)
		return t, topology.NewTorusDOR(t), nil
	}
	m := topology.NewMesh(w, h, cfg.Concentration)
	switch cfg.Routing {
	case "", "xy":
		return m, topology.NewXY(m), nil
	case "yx":
		return m, topology.NewYX(m), nil
	case "oddeven":
		return m, topology.NewOddEven(m), nil
	default:
		return nil, nil, fmt.Errorf("repro: unknown routing %q", cfg.Routing)
	}
}

// BuildNoC constructs a standalone cycle-level network.
func BuildNoC(cfg Config) (*noc.Network, error) {
	topo, routing, err := BuildTopology(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DisableGating {
		cfg.Router.DisableGating = true
	}
	return noc.New(cfg.Router, topo, routing, noc.WithWorkers(cfg.NocWorkers))
}

// BuildBackend constructs the network backend for a mode.
func BuildBackend(cfg Config, mode Mode) (core.Backend, error) {
	topo, routing, err := BuildTopology(cfg)
	if err != nil {
		return nil, err
	}
	if cfg.DisableGating {
		cfg.Router.DisableGating = true
	}
	switch mode {
	case ModeSynchronous, ModeReciprocal:
		return noc.New(cfg.Router, topo, routing, noc.WithWorkers(cfg.NocWorkers))
	case ModeAbstract:
		return abstractnet.NewNetwork(abstractnet.NewFixed(topo, cfg.Abstract)), nil
	case ModeContention:
		return abstractnet.NewNetwork(abstractnet.NewContention(topo, cfg.Abstract)), nil
	case ModeHybrid:
		net, err := noc.New(cfg.Router, topo, routing, noc.WithWorkers(cfg.NocWorkers))
		if err != nil {
			return nil, err
		}
		tuned := abstractnet.NewTuned(abstractnet.NewContention(topo, cfg.Abstract), 4096)
		return core.NewHybrid(net, tuned,
			sim.Cycle(cfg.HybridPeriod), sim.Cycle(cfg.HybridSample))
	case ModeCalibrated:
		net, err := noc.New(cfg.Router, topo, routing, noc.WithWorkers(cfg.NocWorkers))
		if err != nil {
			return nil, err
		}
		tuned := abstractnet.NewTuned(abstractnet.NewContention(topo, cfg.Abstract), 4096)
		retune := sim.Cycle(cfg.Quantum)
		if retune < 1 {
			retune = 1
		}
		return core.NewCalibrated(net, tuned, retune)
	default:
		return nil, fmt.Errorf("repro: unknown mode %q", mode)
	}
}

// ModeQuantum returns the synchronization quantum a mode actually runs
// at under cfg: the configured quantum, except for the modes that
// require cycle-by-cycle coupling.
func ModeQuantum(cfg Config, mode Mode) int {
	switch mode {
	case ModeSynchronous:
		return 1
	case ModeAbstract, ModeContention, ModeCalibrated:
		// The system consults analytical backends inline (they are
		// cheap), so their deliveries land at exact model-predicted
		// cycles with no quantum skew — that is how a latency-model
		// baseline really integrates into a full-system simulator.
		// Calibrated mode's shadow NoC is not stepped per call:
		// core.Paired.AdvanceTo gates it on the pairing's retune period
		// (cfg.Quantum cycles) and advances it one such batch at a time.
		return 1
	}
	return cfg.Quantum
}

// BuildCosim constructs a complete co-simulation of the workload under
// the given mode.
func BuildCosim(cfg Config, mode Mode, wl fullsys.Workload) (*core.Cosim, error) {
	backend, err := BuildBackend(cfg, mode)
	if err != nil {
		return nil, err
	}
	quantum := ModeQuantum(cfg, mode)
	sysCfg := cfg.System
	sysCfg.Tiles = cfg.Tiles
	cs, err := core.Build(sysCfg, wl, backend, quantum)
	if err != nil {
		return nil, err
	}
	cs.Recipe = func(wl fullsys.Workload) (*core.Cosim, error) { return BuildCosim(cfg, mode, wl) }
	return cs, nil
}

// ForkCosim transplants a copy of warm's system state onto a freshly
// built backend for (cfg, mode) — the warm-fork sweep primitive: run
// one simulation through the warmup phase, then fork the warmed system
// across N network configurations instead of repeating N identical
// warmups. The warm simulation's network must be drained (see
// core.Cosim.RunToQuiescence); warm itself keeps running and can be
// forked again.
func ForkCosim(warm *core.Cosim, cfg Config, mode Mode) (*core.Cosim, error) {
	backend, err := BuildBackend(cfg, mode)
	if err != nil {
		return nil, err
	}
	return warm.ForkInto(backend, ModeQuantum(cfg, mode))
}
