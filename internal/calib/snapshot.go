package calib

import (
	"repro/internal/snapshot"
)

// State walks the fitted correction and the sliding observation
// window, so a restored run resumes mid-fit.
func (a *Affine) State(c *snapshot.Codec) {
	c.Section("affine")
	c.F64(&a.alpha)
	c.F64(&a.beta)
	n := c.Len(len(a.pred), 16)
	if n > a.maxWindow {
		c.Failf("affine fit window holds %d pairs, capacity %d", n, a.maxWindow)
		return
	}
	if c.Decoding() {
		// The backing arrays hold two windows; n fits from their start.
		a.setWindow(nil, nil)
		a.pred, a.obs = a.pred[:n], a.obs[:n]
	}
	for i := range a.pred {
		c.F64(&a.pred[i])
		c.F64(&a.obs[i])
	}
}

// State walks the pairing's retune phase and its outstanding
// predictions in ID order, so equal states produce equal bytes. live,
// when non-nil, validates each decoded ID against the detailed side's
// in-flight requests. The shared fit is NOT part of it — it belongs to
// the abstract twin, which describes it — so a pairing and its twin can
// share the fit without encoding it twice.
func (r *Reciprocal) State(c *snapshot.Codec, live func(*snapshot.Codec, uint64)) {
	c.Section("reciprocal")
	snapshot.As64(c, &r.lastTune)
	snapshot.Map(c, &r.preds, 16, func(c *snapshot.Codec, id *uint64, pred *float64) {
		if c.U64(id); live != nil && c.Decoding() && c.Err() == nil {
			live(c, *id)
		}
		c.F64(pred)
	})
}
