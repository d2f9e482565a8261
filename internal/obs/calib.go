package obs

import (
	"math"
	"sort"

	"repro/internal/calib"
	"repro/internal/stats"
)

// CalibLog summarises the divergence history of every reciprocal
// pairing in a run as the retunes arrive: one running Summary per
// component, whose sums are taken in emission order (which is
// deterministic, because retunes happen at quantum boundaries in
// component registry order). It keeps no per-retune record, so its
// size is fixed by the number of components, however long the run.
type CalibLog struct {
	accs []*calibAcc
}

// calibAcc is one component's running summary.
type calibAcc struct {
	Summary
	residSum, driftSum float64
}

// component finds or adds the accumulator of a component.
func (l *CalibLog) component(name string) *calibAcc {
	for _, a := range l.accs {
		if a.Component == name {
			return a
		}
	}
	a := &calibAcc{Summary: Summary{Component: name}}
	l.accs = append(l.accs, a)
	return a
}

// add folds one retune record into its component's summary.
func (l *CalibLog) add(r Record) { l.component(r.Track).fold(r.Fit) }

// fold adds one retune to the accumulator.
func (a *calibAcc) fold(e calib.RetuneEvent) {
	a.Retunes++
	if e.Observations == 0 {
		return
	}
	a.Fed++
	a.Alpha, a.Beta = e.Alpha, e.Beta
	a.residSum += e.Residual
	d := math.Abs(e.Drift)
	a.driftSum += d
	if d > a.MaxAbsDrift {
		a.MaxAbsDrift = d
	}
}

// Summary condenses one component's divergence history.
type Summary struct {
	Component string `json:"component"`
	// Retunes counts refits; Fed counts refits that had at least one
	// observation in the window (an empty window refit is a no-op).
	Retunes int `json:"retunes"`
	Fed     int `json:"fed"`
	// Alpha and Beta are the final affine coefficients.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// MeanResidual is the mean post-fit RMS error across fed retunes:
	// how far the detailed component stays from the corrected model.
	MeanResidual float64 `json:"mean_residual"`
	// MeanAbsDrift is the mean |predict-vs-observe| gap of the RAW
	// (uncorrected) model across fed retunes: the divergence the
	// reciprocal feedback is correcting.
	MeanAbsDrift float64 `json:"mean_abs_drift"`
	// MaxAbsDrift is the worst raw divergence seen at any retune.
	MaxAbsDrift float64 `json:"max_abs_drift"`
}

// Summarize reports one Summary per component that has retuned,
// sorted by component name.
func (l *CalibLog) Summarize() []Summary {
	if l == nil {
		return nil
	}
	var out []Summary
	for _, a := range l.accs {
		if a.Retunes == 0 {
			continue
		}
		s := a.Summary
		if s.Fed > 0 {
			s.MeanResidual = a.residSum / float64(s.Fed)
			s.MeanAbsDrift = a.driftSum / float64(s.Fed)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Component < out[j].Component })
	return out
}

// Table renders the per-component divergence summary.
func (l *CalibLog) Table(title string) *stats.Table {
	t := stats.NewTable(title,
		"component", "retunes", "fed", "alpha", "beta", "mean-resid", "mean-|drift|", "max-|drift|")
	for _, s := range l.Summarize() {
		t.AddRow(s.Component, s.Retunes, s.Fed, s.Alpha, s.Beta,
			s.MeanResidual, s.MeanAbsDrift, s.MaxAbsDrift)
	}
	return t
}
