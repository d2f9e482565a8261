// Package expt implements the reproduction's experiment harness: one
// entry point per reconstructed table/figure (see DESIGN.md's
// experiment index), shared by cmd/repro and the benchmark suite.
//
// Every experiment takes a Scale so the same code runs at a quick
// benchmark scale and at the full evaluation scale.
package expt

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// Scale sizes an experiment run.
type Scale struct {
	// Cores is the tile count for accuracy experiments.
	Cores int
	// OpsPerCore is the per-core memory-op budget.
	OpsPerCore int
	// Workloads lists the kernels to run.
	Workloads []string
	// Quantum is the reciprocal synchronization interval.
	Quantum int
	// Seed keys all workloads.
	Seed uint64
	// CycleLimit bounds each run.
	CycleLimit sim.Cycle
	// SpeedSizes lists target core counts for the GPU speed
	// experiments.
	SpeedSizes []int
	// SpeedOps is the per-core op budget for speed experiments.
	SpeedOps int
	// MemModel selects the memory oracle (fixed|ddr|abstract|calibrated;
	// "" keeps the fixed default). A3 overrides it per column.
	MemModel string
	// NocWorkers shards the detailed NoC sweep across this many
	// workers (0 = one shard). Sharded runs are bit-identical to
	// one-shard ones, so this only moves wall time; the T2/F7
	// sharding columns set it per run through shardWorkers.
	NocWorkers int
}

// Quick returns the benchmark/test scale: small enough for CI, big
// enough that contention effects are visible.
func Quick() Scale {
	return Scale{
		Cores:      16,
		OpsPerCore: 300,
		Workloads:  []string{"fft", "radix", "canneal"},
		Quantum:    64,
		Seed:       42,
		CycleLimit: 5_000_000,
		SpeedSizes: []int{16, 64},
		SpeedOps:   150,
	}
}

// Full returns the paper-scale evaluation (64-core accuracy runs,
// 64..512-core speed runs). Expect minutes of host time.
func Full() Scale {
	return Scale{
		Cores:      64,
		OpsPerCore: 1500,
		Workloads:  workload.Names(),
		Quantum:    64,
		Seed:       42,
		CycleLimit: 20_000_000,
		SpeedSizes: []int{64, 128, 256, 512},
		SpeedOps:   400,
	}
}

// runKey identifies a deterministic co-simulation run for memoization:
// identical parameters always produce identical results, so experiments
// that share a configuration (every accuracy figure re-uses the ground
// truth) reuse one simulation.
type runKey struct {
	mode    repro.Mode
	wl      string
	cores   int
	ops     int
	quantum int
	seed    uint64
	mem     string
}

var runMemo = map[runKey]core.Result{}

// run executes one co-simulation of the named workload under a mode,
// memoizing by configuration. Memoized runs are unobserved, so their
// host-time split is zero; the speed experiments that report it use
// mustRunTimed.
func (s Scale) run(mode repro.Mode, wlName string) (core.Result, error) {
	key := runKey{mode, wlName, s.Cores, s.OpsPerCore, s.Quantum, s.Seed, s.MemModel}
	if r, ok := runMemo[key]; ok {
		return r, nil
	}
	res, err := s.runObserved(mode, wlName, nil, nil)
	if err == nil {
		runMemo[key] = res
	}
	return res, err
}

// runObserved executes one co-simulation under the given observer
// (nil: none), unmemoized. A non-nil st receives the modelled
// coprocessor's cost of the run's detailed network (offloadCost).
func (s Scale) runObserved(mode repro.Mode, wlName string, ob *obs.Observer, st *gpu.Stats) (core.Result, error) {
	cfg := repro.DefaultConfig(s.Cores)
	cfg.Quantum = s.Quantum
	cfg.NocWorkers = s.NocWorkers
	if s.MemModel != "" {
		cfg.System.MemModel = s.MemModel
	}
	wl, err := workload.ByName(wlName, s.Cores, s.OpsPerCore, s.Seed)
	if err != nil {
		return core.Result{}, err
	}
	cs, err := repro.BuildCosim(cfg, mode, wl)
	if err != nil {
		return core.Result{}, err
	}
	defer cs.Close()
	cs.SetObserver(ob)
	res := cs.Run(s.CycleLimit)
	if !res.Finished {
		return res, fmt.Errorf("expt: %s/%s hit the cycle limit", mode, wlName)
	}
	if st != nil {
		*st = offloadCost(cs)
	}
	return res, nil
}

// shardWorkers is the worker count the sharded-NoC comparison rows of
// T2 and F7 use: s.NocWorkers when set, else 8 (the headline axis of
// the sharding evaluation).
func (s Scale) shardWorkers() int {
	if s.NocWorkers > 0 {
		return s.NocWorkers
	}
	return 8
}

// mustRun is run with panic-on-error, for harness-internal paths where
// a failure is a setup bug, not a result.
func (s Scale) mustRun(mode repro.Mode, wlName string) core.Result {
	r, err := s.run(mode, wlName)
	if err != nil {
		panic(err)
	}
	return r
}

// Experiment pairs an identifier with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func(s Scale) []*stats.Table
}

// All lists every experiment in DESIGN.md index order.
func All() []Experiment {
	return []Experiment{
		{"T1", "Target system configuration", TableT1},
		{"F1", "Load-latency: detailed vs abstract models (synthetic)", FigureF1},
		{"F2", "In-vacuum trace-driven NoC evaluation vs co-simulation", FigureF2},
		{"F3", "Average packet latency per workload and mode", FigureF3},
		{"F4", "Packet latency error and reduction (headline)", FigureF4},
		{"F5", "Full-system execution-time error", FigureF5},
		{"F6", "Quantum sweep: accuracy vs speed", FigureF6},
		{"F7", "Simulation time: CPU vs CPU+GPU by target size", FigureF7},
		{"F8", "GPU device-model time breakdown", FigureF8},
		{"T2", "NoC design-space exploration under co-simulation", TableT2},
		{"A1", "Hybrid sampling ablation", FigureA1},
		{"A2", "Sharded NoC stepping scaling", FigureA2},
		{"A3", "Memory abstraction levels under co-simulation", FigureA3},
		{"A4", "NoC energy under co-simulation", FigureA4},
		{"A6", "Calibration telemetry: reciprocal-pairing divergence history", FigureA6},
	}
}

// ByID returns the experiment with the given identifier.
func ByID(id string) (Experiment, error) {
	for _, e := range All() {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("expt: unknown experiment %q", id)
}

// wallMS formats a duration in milliseconds for tables.
func wallMS(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// TableT1 renders the target-machine configuration.
func TableT1(s Scale) []*stats.Table {
	cfg := repro.DefaultConfig(s.Cores)
	t := stats.NewTable("T1: target system configuration", "parameter", "value")
	t.AddRow("tiles", cfg.Tiles)
	t.AddRow("core model", "in-order, blocking loads, 8-entry store buffer")
	t.AddRow("L1 data cache", fmt.Sprintf("%d sets x %d ways x 64B (%d KiB), MESI",
		cfg.System.L1Sets, cfg.System.L1Ways, cfg.System.L1Sets*cfg.System.L1Ways*64/1024))
	t.AddRow("L2", fmt.Sprintf("shared, %d lines/bank (%d KiB), non-inclusive, full-map blocking directory",
		cfg.System.L2Lines, cfg.System.L2Lines*64/1024))
	t.AddRow("memory", fmt.Sprintf("%d cycles, 4 controllers at mesh corners", cfg.System.MemLat))
	t.AddRow("topology", "2D mesh, XY routing")
	t.AddRow("router", fmt.Sprintf("%d VNets x %d VCs, %d-flit buffers, %d-stage pipeline, %d-cycle links",
		cfg.Router.VNets, cfg.Router.VCsPerVNet, cfg.Router.BufDepth, cfg.Router.RouterStages, cfg.Router.LinkLatency))
	t.AddRow("packets", "1-flit control, 5-flit data (64B line / 16B flits)")
	t.AddRow("NoC stepping", "activity-gated + idle fast-forward (exhaustive sweep via -no-fastforward)")
	t.AddRow("quantum", cfg.Quantum)
	return []*stats.Table{t}
}
