package expt

import (
	"repro"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FigureA5 compares router microarchitectures in system context:
// buffered virtual-channel wormhole vs bufferless deflection routing.
// Network-only studies rank these by saturation throughput; the
// co-simulation shows what the difference does to real execution time,
// where coherence traffic is bursty and latency-critical rather than
// bandwidth-critical.
func FigureA5(s Scale) []*stats.Table {
	t := stats.NewTable("A5: router architecture under co-simulation (VC vs bufferless deflection)",
		"workload", "vc-exec", "defl-exec", "exec-delta-%", "vc-lat", "defl-lat", "defl-rate-%")
	for _, name := range s.Workloads {
		vc := s.mustRun(repro.ModeReciprocal, name)

		cfg := repro.DefaultConfig(s.Cores)
		cfg.Quantum = s.Quantum
		cfg.RouterArch = "deflect"
		wl, err := workload.ByName(name, s.Cores, s.OpsPerCore, s.Seed)
		if err != nil {
			panic(err)
		}
		cs, err := repro.BuildCosim(cfg, repro.ModeReciprocal, wl)
		if err != nil {
			panic(err)
		}
		res := cs.Run(s.CycleLimit)
		dnet := cs.Net.(*noc.Deflection)
		rate := dnet.DeflectionRate() * 100
		cs.Net.Close()
		if !res.Finished {
			panic("expt: A5 deflection run hit cycle limit")
		}
		delta := (float64(res.ExecCycles)/float64(vc.ExecCycles) - 1) * 100
		t.AddRow(name, uint64(vc.ExecCycles), uint64(res.ExecCycles), delta,
			vc.AvgLatency, res.AvgLatency, rate)
	}
	return []*stats.Table{t}
}
