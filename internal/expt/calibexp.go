package expt

import (
	"fmt"
	"math"

	"repro"
	"repro/internal/calib"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

// FigureA6 surfaces the calibration telemetry the observability layer
// records: for each workload, the calibrated backends (network model
// plus per-controller memory oracles) run with a retune observer
// attached, and the experiment reports every pairing's divergence
// history — how often it refit, the coefficients it converged to, and
// the predict-vs-observe drift the reciprocal feedback was correcting.
// A second table splits the network pairing's history into quarters of
// the run, showing the correction converging (|drift| large early,
// small late) — the behaviour the paper's online re-tuning argument
// depends on.
func FigureA6(s Scale) []*stats.Table {
	perComp := stats.NewTable("A6: calibration telemetry — divergence per reciprocal pairing",
		"workload", "component", "retunes", "fed", "alpha", "beta", "mean-resid", "mean-|drift|", "max-|drift|")
	conv := stats.NewTable("A6b: network-model drift by run quarter (calibrated mode)",
		"workload", "q1-|drift|", "q2-|drift|", "q3-|drift|", "q4-|drift|", "final-alpha", "final-beta")

	for _, name := range s.Workloads {
		cfg := repro.DefaultConfig(s.Cores)
		cfg.Quantum = s.Quantum
		cfg.System.MemModel = "calibrated"
		wl, err := workload.ByName(name, s.Cores, s.OpsPerCore, s.Seed)
		if err != nil {
			panic(err)
		}
		cs, err := repro.BuildCosim(cfg, repro.ModeCalibrated, wl)
		if err != nil {
			panic(err)
		}
		// The quarter split subscribes to the network pairing's retunes.
		ob := obs.New(obs.Options{Calib: true})
		var drifts []float64
		var last calib.RetuneEvent
		ob.Subscribe(obs.RetuneRecord, func(r obs.Record) {
			if r.Track == "calibrated" {
				drifts = append(drifts, math.Abs(r.Fit.Drift))
				last = r.Fit
			}
		})
		cs.SetObserver(ob)
		if res := cs.Run(s.CycleLimit); !res.Finished {
			cs.Close()
			panic(fmt.Sprintf("expt: A6 %s hit the cycle limit", name))
		}
		cs.Close()

		for _, sum := range ob.Calib().Summarize() {
			perComp.AddRow(name, sum.Component, sum.Retunes, sum.Fed,
				sum.Alpha, sum.Beta, sum.MeanResidual, sum.MeanAbsDrift, sum.MaxAbsDrift)
		}

		if len(drifts) == 0 {
			continue
		}
		var qs [4]float64
		var qn [4]int
		for i, d := range drifts {
			q := i * 4 / len(drifts)
			qs[q] += d
			qn[q]++
		}
		for q := range qs {
			if qn[q] > 0 {
				qs[q] /= float64(qn[q])
			}
		}
		conv.AddRow(name, qs[0], qs[1], qs[2], qs[3], last.Alpha, last.Beta)
	}
	return []*stats.Table{perComp, conv}
}
