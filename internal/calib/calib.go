// Package calib implements the calibration machinery of reciprocal
// abstraction, factored out of the network-specific code so every
// detailed/abstract component pair can reuse it: an online affine
// correction fit by least squares over a sliding window of
// (predicted, observed) pairs, and a generic Reciprocal pairing that
// tracks per-request predictions, feeds completed observations into
// the fit, and refits on a fixed cadence.
//
// The network models (internal/abstractnet.Tuned) and the abstract
// memory oracle (internal/dram) are both clients; neither owns the
// feedback loop anymore.
package calib

import "repro/internal/sim"

// Affine is an online affine correction: corrected = alpha*base + beta,
// refit by ordinary least squares over a sliding window of
// (predicted, observed) pairs. The zero correction (alpha=1, beta=0)
// is the identity; use NewAffine to get one with a bounded window.
type Affine struct {
	alpha, beta float64
	// pred and obs are the live window, oldest first. They are views
	// that slide through predBuf/obsBuf — twice the window — and are
	// copied back to the front once per maxWindow observations, so an
	// observation costs one store, not a shift of the whole window.
	pred, obs       []float64
	predBuf, obsBuf []float64 //simlint:derived backing arrays of pred/obs; only the live window is state
	maxWindow       int       //simlint:derived construction-time capacity; restore validates the window against it
}

// NewAffine returns an identity correction with a sliding observation
// window of the given size (minimum 8).
func NewAffine(window int) *Affine {
	if window < 8 {
		window = 8
	}
	a := &Affine{
		alpha:     1,
		predBuf:   make([]float64, 0, 2*window),
		obsBuf:    make([]float64, 0, 2*window),
		maxWindow: window,
	}
	a.setWindow(nil, nil)
	return a
}

// Apply corrects a base prediction.
func (a *Affine) Apply(base float64) float64 { return a.alpha*base + a.beta }

// Coeffs reports the current correction coefficients.
func (a *Affine) Coeffs() (alpha, beta float64) { return a.alpha, a.beta }

// Observe records one (base-model prediction, detailed observation)
// pair, dropping the oldest pair once the window is full.
func (a *Affine) Observe(predicted, observed float64) {
	if len(a.pred) == a.maxWindow {
		a.pred, a.obs = a.pred[1:], a.obs[1:]
		if len(a.pred) == cap(a.pred) {
			// The views reached the end of the backing arrays.
			a.setWindow(a.pred, a.obs)
		}
	}
	a.pred = append(a.pred, predicted)
	a.obs = append(a.obs, observed)
}

// setWindow makes (pred, obs) the live window, stored at the front of
// the backing arrays. The sources may alias them further along.
func (a *Affine) setWindow(pred, obs []float64) {
	a.pred = append(a.predBuf[:0], pred...)
	a.obs = append(a.obsBuf[:0], obs...)
}

// Retune refits the correction by ordinary least squares over the
// observation window. With fewer than two distinct predictions — or a
// degenerate slope from a pathological window — it falls back to a
// pure offset correction.
func (a *Affine) Retune() {
	n := float64(len(a.pred))
	if n == 0 {
		return
	}
	var sx, sy, sxx, sxy float64
	for i := range a.pred {
		x, y := a.pred[i], a.obs[i]
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den < 1e-9 {
		a.alpha = 1
		a.beta = (sy - sx) / n
		return
	}
	a.alpha = (n*sxy - sx*sy) / den
	a.beta = (sy - a.alpha*sx) / n
	if a.alpha < 0.1 || a.alpha > 10 {
		a.alpha = 1
		a.beta = (sy - sx) / n
	}
}

// ObservationCount reports how many pairs are in the fit window.
func (a *Affine) ObservationCount() int { return len(a.pred) }

// Window reports the sliding-window capacity.
func (a *Affine) Window() int { return a.maxWindow }

// Reciprocal is the calibration feed of one detailed/abstract
// component pair: the abstract twin's per-request predictions are
// recorded at injection, matched against the detailed component's
// completions as observations into the shared fit, and the fit is
// refit once per period. A request is identified across the two sides
// by a uint64 ID that is never reused within a run (a packet's ID for
// the network, a shadow-request ID for the memory oracle).
type Reciprocal struct {
	fit      *Affine   //simlint:derived shared fit owned and snapshotted by the abstract twin
	period   sim.Cycle //simlint:derived construction input; the restore target is built with the same period
	preds    map[uint64]float64
	lastTune sim.Cycle
	// sink observes retunes (telemetry.go); it is not simulated state
	// and is not snapshotted.
	sink RetuneSink //simlint:derived observer hook re-attached per run, never simulated state
}

// NewReciprocal returns a pairing over the shared fit with the given
// retune period (minimum 1 cycle).
func NewReciprocal(fit *Affine, period sim.Cycle) *Reciprocal {
	if period < 1 {
		period = 1
	}
	return &Reciprocal{
		fit:    fit,
		period: period,
		preds:  make(map[uint64]float64),
	}
}

// Fit exposes the shared affine correction.
func (r *Reciprocal) Fit() *Affine { return r.fit }

// Predict records the abstract twin's prediction for a request that is
// about to enter the detailed component.
func (r *Reciprocal) Predict(req uint64, predicted float64) {
	r.preds[req] = predicted
}

// Observe matches a detailed completion against its recorded
// prediction, feeding the pair into the fit; it reports false when the
// request has no recorded prediction (e.g. it predates a restore or
// was never shadowed).
func (r *Reciprocal) Observe(req uint64, observed float64) bool {
	pred, ok := r.preds[req]
	if !ok {
		return false
	}
	delete(r.preds, req)
	r.fit.Observe(pred, observed)
	return true
}

// Due reports whether a full period has elapsed since the last refit —
// the check MaybeRetune applies, without performing the refit. Callers
// that batch their detailed side per period (e.g. the calibrated
// network backend) gate the batch on Due, observe its completions, and
// then call MaybeRetune.
func (r *Reciprocal) Due(now sim.Cycle) bool {
	return now-r.lastTune >= r.period
}

// MaybeRetune refits the correction when a full period has elapsed
// since the last refit, reporting whether it did.
func (r *Reciprocal) MaybeRetune(now sim.Cycle) bool {
	if now-r.lastTune < r.period {
		return false
	}
	r.fit.Retune()
	r.lastTune = now - now%r.period
	if r.sink != nil {
		r.sink(r.event(now))
	}
	return true
}

// Outstanding reports requests with a recorded prediction that have
// not completed yet.
func (r *Reciprocal) Outstanding() int { return len(r.preds) }
