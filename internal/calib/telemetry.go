package calib

import (
	"math"

	"repro/internal/sim"
)

// RetuneEvent describes one refit of a reciprocal pairing: when it
// happened, the coefficients it produced, and how far the detailed
// component had diverged from the model over the window that fed it.
// Events are pure observations — emitting them never changes the fit.
type RetuneEvent struct {
	// At is the cycle the refit ran (a quantum boundary).
	At sim.Cycle `json:"at"`
	// Alpha and Beta are the affine coefficients after the refit.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	// Residual is the post-fit RMS error of the corrected model over
	// the window: the divergence the correction could NOT remove.
	Residual float64 `json:"residual"`
	// Drift is the mean observed-minus-predicted gap of the RAW
	// (uncorrected) model over the window: the divergence the
	// reciprocal feedback is correcting. Signed, so a persistent bias
	// shows its direction.
	Drift float64 `json:"drift"`
	// Observations is how many (predict, observe) pairs fed the refit;
	// zero means the refit was a no-op on an empty window.
	Observations int `json:"observations"`
	// Window is the sliding-window capacity.
	Window int `json:"window"`
	// Outstanding is how many shadowed requests were still in flight.
	Outstanding int `json:"outstanding"`
}

// RetuneSink receives every retune event of a pairing. Sinks are
// observers: they must not mutate simulated state. A sink is not part
// of snapshots — restoring a pairing keeps whatever sink is installed.
type RetuneSink func(RetuneEvent)

// SetSink installs the pairing's retune observer (nil disables).
func (r *Reciprocal) SetSink(sink RetuneSink) { r.sink = sink }

// Residual reports the RMS error of the CURRENT correction over the
// observation window (0 on an empty window). After Retune this is the
// post-fit residual: divergence the affine family cannot express.
func (a *Affine) Residual() float64 {
	if len(a.pred) == 0 {
		return 0
	}
	var sum float64
	for i := range a.pred {
		d := a.Apply(a.pred[i]) - a.obs[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(len(a.pred)))
}

// Drift reports the mean observed-minus-predicted gap of the raw
// (uncorrected) model over the observation window (0 when empty).
func (a *Affine) Drift() float64 {
	if len(a.pred) == 0 {
		return 0
	}
	var sum float64
	for i := range a.pred {
		sum += a.obs[i] - a.pred[i]
	}
	return sum / float64(len(a.pred))
}

// event captures the pairing's state right after a refit.
func (r *Reciprocal) event(now sim.Cycle) RetuneEvent {
	alpha, beta := r.fit.Coeffs()
	return RetuneEvent{
		At:           now,
		Alpha:        alpha,
		Beta:         beta,
		Residual:     r.fit.Residual(),
		Drift:        r.fit.Drift(),
		Observations: r.fit.ObservationCount(),
		Window:       r.fit.Window(),
		Outstanding:  len(r.preds),
	}
}
