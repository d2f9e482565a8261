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

// State walks the pairing's outstanding predictions (in the order
// induced by less, so equal states produce equal bytes; key walks a
// request key, resolving it back to a live request when decoding) and
// its retune phase. The shared fit is NOT part of it — it belongs to
// the abstract twin, which describes it — so a pairing and its twin can
// share the fit without encoding it twice.
func (r *Reciprocal[Req]) State(c *snapshot.Codec, less func(a, b Req) bool, key func(*snapshot.Codec, *Req)) {
	c.Section("reciprocal")
	snapshot.As64(c, &r.lastTune)
	snapshot.MapBy(c, &r.preds, 16, less, func(c *snapshot.Codec, req *Req, pred *float64) {
		key(c, req)
		c.F64(pred)
	})
}
