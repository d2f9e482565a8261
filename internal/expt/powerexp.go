package expt

import (
	"repro"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FigureA4 reports NoC energy per workload under reciprocal
// co-simulation: another statistic only available when the detailed
// component runs in system context (an in-vacuum power estimate would
// inherit the trace's wrong operating point).
func FigureA4(s Scale) []*stats.Table {
	t := stats.NewTable("A4: NoC energy under co-simulation (per workload)",
		"workload", "exec-cycles", "flits", "buffer-%", "xbar-%", "alloc-%", "link-%", "leak-%", "total-uJ", "avg-mW@2GHz")
	for _, name := range s.Workloads {
		cfg := repro.DefaultConfig(s.Cores)
		cfg.Quantum = s.Quantum
		backend, err := repro.BuildBackend(cfg, repro.ModeReciprocal)
		if err != nil {
			panic(err)
		}
		wl, err := workload.ByName(name, s.Cores, s.OpsPerCore, s.Seed)
		if err != nil {
			panic(err)
		}
		cs, err := core.Build(cfg.System, wl, backend, cfg.Quantum)
		if err != nil {
			panic(err)
		}
		res := cs.Run(s.CycleLimit)
		net := backend.(*noc.Network)
		r := net.Energy(noc.DefaultEnergy())
		backend.Close()
		if !res.Finished {
			panic("expt: A4 run hit cycle limit")
		}
		total := r.TotalPJ()
		share := func(pj float64) float64 {
			if total == 0 {
				return 0
			}
			return pj / total * 100
		}
		t.AddRow(name, uint64(res.ExecCycles), r.XbarFlits,
			share(r.BufferPJ), share(r.XbarPJ), share(r.ArbPJ), share(r.LinkPJ), share(r.LeakagePJ),
			total/1e6, r.AvgPowerMW(2.0))
	}
	return []*stats.Table{t}
}
