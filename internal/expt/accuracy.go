package expt

import (
	"repro"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FigureF2 demonstrates claim C1: evaluating the detailed NoC "in a
// vacuum" — driven by a trace captured under the abstract model —
// mispredicts packet latency relative to closed-loop co-simulation,
// because the frozen trace cannot react to the network's timing.
//
// Feedback only matters when the network is loaded enough to push back
// on the cores, so this experiment runs all three arms on a
// deliberately lean router (one VC per virtual network, 2-flit
// buffers): the abstract capture run cannot observe the congestion, so
// its trace's operating point is wrong, while the closed-loop
// (calibrated reciprocal) arm measures the same router under the
// traffic the real system produces.
func FigureF2(s Scale) []*stats.Table {
	t := stats.NewTable("F2: in-vacuum (trace-driven) vs closed-loop NoC evaluation (lean router)",
		"workload", "truth-lat", "vacuum-lat", "vacuum-err-%", "closedloop-lat", "closedloop-err-%")
	var vacuumErrs, closedErrs []float64

	leanCfg := func() repro.Config {
		cfg := repro.DefaultConfig(s.Cores)
		cfg.Quantum = s.Quantum
		cfg.Router.VCsPerVNet = 1
		cfg.Router.BufDepth = 2
		return cfg
	}
	runLean := func(mode repro.Mode, name string) core.Result {
		wl, err := workload.ByName(name, s.Cores, s.OpsPerCore, s.Seed)
		if err != nil {
			panic(err)
		}
		cs, err := repro.BuildCosim(leanCfg(), mode, wl)
		if err != nil {
			panic(err)
		}
		defer cs.Net.Close()
		res := cs.Run(s.CycleLimit)
		if !res.Finished {
			panic("expt: F2 lean run hit cycle limit")
		}
		return res
	}

	for _, name := range s.Workloads {
		truth := runLean(repro.ModeSynchronous, name)

		// Capture the injection trace of an abstract-model run (the
		// methodology an isolated NoC study would use), then replay it
		// open-loop into a fresh detailed network.
		cfg := leanCfg()
		backend, err := repro.BuildBackend(cfg, repro.ModeAbstract)
		if err != nil {
			panic(err)
		}
		rec := core.NewRecorder(backend)
		wl, err := workload.ByName(name, s.Cores, s.OpsPerCore, s.Seed)
		if err != nil {
			panic(err)
		}
		cs, err := core.Build(cfg.System, wl, rec, 1)
		if err != nil {
			panic(err)
		}
		if res := cs.Run(s.CycleLimit); !res.Finished {
			panic("expt: F2 trace capture hit cycle limit")
		}
		net, err := repro.BuildNoC(cfg)
		if err != nil {
			panic(err)
		}
		vacuum := core.Replay(rec.Trace, net, 1_000_000)
		vacuumLat := vacuum.Mean()
		net.Close()

		closed := runLean(repro.ModeCalibrated, name)

		ev := stats.AbsPctErr(vacuumLat, truth.AvgLatency)
		ec := stats.AbsPctErr(closed.AvgLatency, truth.AvgLatency)
		vacuumErrs = append(vacuumErrs, ev)
		closedErrs = append(closedErrs, ec)
		t.AddRow(name, truth.AvgLatency, vacuumLat, ev, closed.AvgLatency, ec)
	}
	t.AddRow("mean", "", "", mean(vacuumErrs), "", mean(closedErrs))
	return []*stats.Table{t}
}

// FigureF3 reports average packet latency per workload under the
// abstract model, reciprocal co-simulation, and ground truth.
func FigureF3(s Scale) []*stats.Table {
	t := stats.NewTable("F3: average packet latency (cycles) per workload",
		"workload", "truth", "abstract", "contention", "reciprocal")
	for _, name := range s.Workloads {
		truth := s.mustRun(repro.ModeSynchronous, name)
		abs := s.mustRun(repro.ModeAbstract, name)
		con := s.mustRun(repro.ModeContention, name)
		rec := s.mustRun(repro.ModeReciprocal, name)
		t.AddRow(name, truth.AvgLatency, abs.AvgLatency, con.AvgLatency, rec.AvgLatency)
	}
	return []*stats.Table{t}
}

// FigureF4 is the headline claim (C2): packet latency error of the
// abstract model vs reciprocal co-simulation, and the average error
// reduction (the paper reports 69%). Both reciprocal variants are
// shown: the quantum-lagged detailed coupling and the calibrated
// (model-timed, detailed-shadowed) integration.
func FigureF4(s Scale) []*stats.Table {
	t := stats.NewTable("F4: packet latency error vs synchronous ground truth",
		"workload", "abstract-err-%", "reciprocal-err-%", "calibrated-err-%", "lagged-reduction-%", "calibrated-reduction-%")
	var absErrs, recErrs, calErrs []float64
	for _, name := range s.Workloads {
		truth := s.mustRun(repro.ModeSynchronous, name)
		abs := s.mustRun(repro.ModeAbstract, name)
		rec := s.mustRun(repro.ModeReciprocal, name)
		cal := s.mustRun(repro.ModeCalibrated, name)
		ea := stats.AbsPctErr(abs.AvgLatency, truth.AvgLatency)
		er := stats.AbsPctErr(rec.AvgLatency, truth.AvgLatency)
		ec := stats.AbsPctErr(cal.AvgLatency, truth.AvgLatency)
		absErrs = append(absErrs, ea)
		recErrs = append(recErrs, er)
		calErrs = append(calErrs, ec)
		t.AddRow(name, ea, er, ec, stats.ErrorReduction(ea, er), stats.ErrorReduction(ea, ec))
	}
	ma, mr, mc := mean(absErrs), mean(recErrs), mean(calErrs)
	t.AddRow("mean", ma, mr, mc, stats.ErrorReduction(ma, mr), stats.ErrorReduction(ma, mc))
	return []*stats.Table{t}
}

// FigureF5 reports full-system execution-time error: how much each
// network abstraction distorts the program's predicted runtime. The
// quantum-lagged coupling pays its delivery skew here; the calibrated
// integration avoids it by timing the system from the tuned model.
func FigureF5(s Scale) []*stats.Table {
	t := stats.NewTable("F5: execution-time (cycles) and error vs ground truth",
		"workload", "truth", "abstract", "abs-err-%", "reciprocal", "rec-err-%", "calibrated", "cal-err-%")
	var absErrs, recErrs, calErrs []float64
	for _, name := range s.Workloads {
		truth := s.mustRun(repro.ModeSynchronous, name)
		abs := s.mustRun(repro.ModeAbstract, name)
		rec := s.mustRun(repro.ModeReciprocal, name)
		cal := s.mustRun(repro.ModeCalibrated, name)
		ea := stats.AbsPctErr(float64(abs.ExecCycles), float64(truth.ExecCycles))
		er := stats.AbsPctErr(float64(rec.ExecCycles), float64(truth.ExecCycles))
		ec := stats.AbsPctErr(float64(cal.ExecCycles), float64(truth.ExecCycles))
		absErrs = append(absErrs, ea)
		recErrs = append(recErrs, er)
		calErrs = append(calErrs, ec)
		t.AddRow(name, uint64(truth.ExecCycles), uint64(abs.ExecCycles), ea,
			uint64(rec.ExecCycles), er, uint64(cal.ExecCycles), ec)
	}
	t.AddRow("mean", "", "", mean(absErrs), "", mean(recErrs), "", mean(calErrs))
	return []*stats.Table{t}
}

// FigureA1 evaluates the hybrid sampling ablation: accuracy and the
// share of traffic simulated in detail.
func FigureA1(s Scale) []*stats.Table {
	t := stats.NewTable("A1: hybrid sampling (reciprocal feedback) ablation",
		"workload", "truth-lat", "abstract-err-%", "hybrid-err-%", "reciprocal-err-%", "detailed-share-%")
	for _, name := range s.Workloads {
		truth := s.mustRun(repro.ModeSynchronous, name)
		abs := s.mustRun(repro.ModeAbstract, name)
		rec := s.mustRun(repro.ModeReciprocal, name)

		cfg := repro.DefaultConfig(s.Cores)
		cfg.Quantum = s.Quantum
		backend, err := repro.BuildBackend(cfg, repro.ModeHybrid)
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
		share := backend.(*core.Paired).DetailedShare() * 100
		backend.Close()
		if !res.Finished {
			panic("expt: A1 hybrid run hit cycle limit")
		}
		t.AddRow(name, truth.AvgLatency,
			stats.AbsPctErr(abs.AvgLatency, truth.AvgLatency),
			stats.AbsPctErr(res.AvgLatency, truth.AvgLatency),
			stats.AbsPctErr(rec.AvgLatency, truth.AvgLatency),
			share)
	}
	return []*stats.Table{t}
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
