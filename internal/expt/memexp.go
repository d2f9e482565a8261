package expt

import (
	"repro"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/stats"
	"repro/internal/workload"
)

// memRun executes one reciprocal-network co-simulation under the given
// memory model and returns the result, the aggregated memory-oracle
// statistics, and the model-side mean latency for oracles that have one
// (the abstract oracle's analytical latency; the calibrated oracle's
// tuned model latency; 0 for the detailed oracle, whose statistics are
// all measured).
func memRun(s Scale, name, mem string) (core.Result, dram.Stats, float64) {
	cfg := repro.DefaultConfig(s.Cores)
	cfg.Quantum = s.Quantum
	cfg.System.MemModel = mem
	wl, err := workload.ByName(name, s.Cores, s.OpsPerCore, s.Seed)
	if err != nil {
		panic(err)
	}
	cs, err := repro.BuildCosim(cfg, repro.ModeReciprocal, wl)
	if err != nil {
		panic(err)
	}
	defer cs.Close()
	res := cs.Run(s.CycleLimit)
	if !res.Finished {
		panic("expt: A3 " + mem + " run hit cycle limit")
	}
	dst := cs.Sys.DRAMStats()
	var modelLat float64
	var n int
	for _, p := range cs.Sys.MemPorts() {
		switch o := p.Oracle.(type) {
		case *dram.AbstractOracle:
			modelLat += o.Stats().AvgLatency
			n++
		case *dram.CalibratedOracle:
			modelLat += o.ModelAvgLatency()
			n++
		}
	}
	if n > 0 {
		modelLat /= float64(n)
	}
	return res, dst, modelLat
}

// pctErr is the signed relative error of got vs want, in percent.
func pctErr(got, want float64) float64 {
	if want == 0 {
		return 0
	}
	return (got/want - 1) * 100
}

// FigureA3 is the framework-generality ablation: reciprocal abstraction
// hosting main memory as a second detailed component. Per workload, the
// reciprocal network runs against all four memory oracles and the table
// reports (a) full-system execution-time error of the abstract and
// calibrated memory models against the bank-level DDR ground truth,
// (b) the DDR model's measured row-hit/latency/queue behaviour, and
// (c) abstract-vs-reciprocal memory latency error — the uncorrected
// analytical latency against the DDR measurement, and the
// online-calibrated model latency against its own shadow controller's
// in-context measurement.
func FigureA3(s Scale) []*stats.Table {
	t := stats.NewTable("A3: memory abstraction levels under co-simulation",
		"workload", "fixed-exec", "ddr-exec", "abs-exec-err-%", "cal-exec-err-%",
		"row-hit-%", "ddr-lat", "abs-lat-err-%", "cal-lat-err-%")
	for _, name := range s.Workloads {
		sFixed := s
		sFixed.MemModel = "fixed"
		fixed := sFixed.mustRun(repro.ModeReciprocal, name)

		ddr, ddrStats, _ := memRun(s, name, "ddr")
		abs, _, absLat := memRun(s, name, "abstract")
		cal, calStats, calLat := memRun(s, name, "calibrated")

		t.AddRow(name,
			uint64(fixed.ExecCycles), uint64(ddr.ExecCycles),
			pctErr(float64(abs.ExecCycles), float64(ddr.ExecCycles)),
			pctErr(float64(cal.ExecCycles), float64(ddr.ExecCycles)),
			ddrStats.RowHitRate()*100, ddrStats.AvgLatency,
			pctErr(absLat, ddrStats.AvgLatency),
			pctErr(calLat, calStats.AvgLatency))
	}
	return []*stats.Table{t}
}
