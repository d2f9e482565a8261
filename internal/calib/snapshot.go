package calib

import (
	"sort"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// SnapshotTo writes the fitted correction and the sliding observation
// window, so a restored run resumes mid-fit.
func (a *Affine) SnapshotTo(e *snapshot.Encoder) {
	e.Section("affine")
	e.F64(a.alpha)
	e.F64(a.beta)
	e.U32(uint32(len(a.pred)))
	for i := range a.pred {
		e.F64(a.pred[i])
		e.F64(a.obs[i])
	}
}

// RestoreFrom reloads the state written by SnapshotTo.
func (a *Affine) RestoreFrom(d *snapshot.Decoder) error {
	d.Section("affine")
	a.alpha = d.F64()
	a.beta = d.F64()
	n := d.Count(16)
	if d.Err() == nil && n > a.maxWindow {
		d.Failf("affine fit window holds %d pairs, capacity %d", n, a.maxWindow)
		return d.Err()
	}
	a.setWindow(nil, nil)
	for i := 0; i < n; i++ {
		a.pred = append(a.pred, d.F64())
		a.obs = append(a.obs, d.F64())
	}
	return d.Err()
}

// SnapshotTo writes the pairing's outstanding predictions (in the
// order induced by less, so equal states produce equal bytes; enc
// serializes a request key) and its retune phase. The shared fit is
// NOT written — it belongs to the abstract twin, which snapshots it —
// so a pairing and its twin can share the fit without encoding it
// twice.
func (r *Reciprocal[Req]) SnapshotTo(e *snapshot.Encoder,
	less func(a, b Req) bool, enc func(*snapshot.Encoder, Req)) {
	e.Section("reciprocal")
	e.U64(uint64(r.lastTune))
	keys := make([]Req, 0, len(r.preds))
	//simlint:allow maprange keys collected here are sorted before use
	for req := range r.preds {
		keys = append(keys, req)
	}
	sort.Slice(keys, func(i, j int) bool { return less(keys[i], keys[j]) })
	e.U32(uint32(len(keys)))
	for _, req := range keys {
		enc(e, req)
		e.F64(r.preds[req])
	}
}

// RestoreFrom reloads the state written by SnapshotTo; dec resolves a
// serialized request key back to a live request.
func (r *Reciprocal[Req]) RestoreFrom(d *snapshot.Decoder,
	dec func(*snapshot.Decoder) (Req, error)) error {
	d.Section("reciprocal")
	r.lastTune = sim.Cycle(d.U64())
	n := d.Count(16)
	r.preds = make(map[Req]float64, n)
	for i := 0; i < n; i++ {
		req, err := dec(d)
		if err != nil {
			return err
		}
		r.preds[req] = d.F64()
	}
	return d.Err()
}
