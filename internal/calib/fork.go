package calib

// In-memory forking (second tier of the state capture contract; see
// DESIGN.md "Two-tier state capture").

// Fork returns an independent deep copy of the correction, including
// the sliding observation window.
func (a *Affine) Fork() *Affine {
	f := NewAffine(a.maxWindow)
	f.RestoreFork(a)
	return f
}

// RestoreFork copies f's state into a in place, reusing a's window
// backing arrays. f is left intact for repeated restores.
func (a *Affine) RestoreFork(f *Affine) {
	a.alpha = f.alpha
	a.beta = f.beta
	a.setWindow(f.pred, f.obs)
}

// ForkWith returns an independent deep copy of the pairing wired to
// fit — the forked abstract twin's correction, so the fork preserves
// the fit-sharing topology instead of aliasing the parent's. remap
// translates request keys into the fork's object graph (packet
// pointers must map to the cloned packets); nil means keys are plain
// values shared as-is. The observer sink is not cloned: it is
// host-side telemetry, re-attached per run.
func (r *Reciprocal[Req]) ForkWith(fit *Affine, remap func(Req) Req) *Reciprocal[Req] {
	f := &Reciprocal[Req]{
		fit:      fit,
		period:   r.period,
		preds:    make(map[Req]float64, len(r.preds)),
		lastTune: r.lastTune,
	}
	//simlint:allow maprange map-to-map rebuild; insertion order immaterial
	for req, pred := range r.preds {
		if remap != nil {
			req = remap(req)
		}
		f.preds[req] = pred
	}
	return f
}

// RestoreForkWith copies f's state into r in place. r keeps its own
// shared fit (restored by the abstract twin that owns it); remap
// translates f's request keys into r's object graph.
func (r *Reciprocal[Req]) RestoreForkWith(f *Reciprocal[Req], remap func(Req) Req) {
	r.lastTune = f.lastTune
	r.preds = make(map[Req]float64, len(f.preds))
	//simlint:allow maprange map-to-map rebuild; insertion order immaterial
	for req, pred := range f.preds {
		if remap != nil {
			req = remap(req)
		}
		r.preds[req] = pred
	}
}
