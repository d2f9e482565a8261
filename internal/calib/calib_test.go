package calib

import (
	"math"
	"testing"

	"repro/internal/snapshot"
)

// TestAffineRecoversMapping proves the least-squares fit recovers a
// known affine relation between predictions and observations.
func TestAffineRecoversMapping(t *testing.T) {
	a := NewAffine(64)
	for x := 1.0; x <= 32; x++ {
		a.Observe(x, 2.5*x+7)
	}
	a.Retune()
	alpha, beta := a.Coeffs()
	if math.Abs(alpha-2.5) > 1e-9 || math.Abs(beta-7) > 1e-9 {
		t.Errorf("fit (%.3f, %.3f), want (2.5, 7)", alpha, beta)
	}
	if got := a.Apply(10); math.Abs(got-32) > 1e-9 {
		t.Errorf("Apply(10) = %.3f, want 32", got)
	}
}

// TestAffineOffsetFallback: a constant predictor has no slope
// information; the fit must degrade to a pure offset, not blow up.
func TestAffineOffsetFallback(t *testing.T) {
	a := NewAffine(64)
	for i := 0; i < 16; i++ {
		a.Observe(100, 140)
	}
	a.Retune()
	alpha, beta := a.Coeffs()
	if alpha != 1 || math.Abs(beta-40) > 1e-9 {
		t.Errorf("degenerate fit (%.3f, %.3f), want offset-only (1, 40)", alpha, beta)
	}
}

// TestAffineWindowSlides: the window drops the oldest pairs, so the
// fit tracks the most recent observations.
func TestAffineWindowSlides(t *testing.T) {
	a := NewAffine(8)
	for x := 1.0; x <= 8; x++ {
		a.Observe(x, x) // identity regime, about to scroll out
	}
	for x := 1.0; x <= 8; x++ {
		a.Observe(x, 3*x) // current regime
	}
	if a.ObservationCount() != 8 {
		t.Fatalf("window holds %d pairs, want 8", a.ObservationCount())
	}
	a.Retune()
	if alpha, _ := a.Coeffs(); math.Abs(alpha-3) > 1e-9 {
		t.Errorf("fit alpha %.3f, want 3 (old regime must have scrolled out)", alpha)
	}
}

// TestReciprocalFeed exercises the predict/observe/retune cycle of a
// pairing over integer request ids.
func TestReciprocalFeed(t *testing.T) {
	r := NewReciprocal[uint64](NewAffine(32), 100)
	r.Predict(1, 10)
	r.Predict(2, 20)
	if r.Outstanding() != 2 {
		t.Fatalf("outstanding %d, want 2", r.Outstanding())
	}
	if !r.Observe(1, 25) {
		t.Error("Observe(1) found no prediction")
	}
	if r.Observe(99, 5) {
		t.Error("Observe(99) matched a prediction that was never made")
	}
	if r.Outstanding() != 1 {
		t.Errorf("outstanding %d after one completion, want 1", r.Outstanding())
	}
	if r.MaybeRetune(50) {
		t.Error("retuned before a full period elapsed")
	}
	if !r.MaybeRetune(100) {
		t.Error("did not retune at the period boundary")
	}
	if r.Fit().ObservationCount() != 1 {
		t.Errorf("fit holds %d observations, want 1", r.Fit().ObservationCount())
	}
}

// TestCalibSnapshotRoundTrip: an Affine and a Reciprocal restored from
// their own snapshots must re-encode to identical bytes.
func TestCalibSnapshotRoundTrip(t *testing.T) {
	a := NewAffine(16)
	for x := 1.0; x <= 10; x++ {
		a.Observe(x, 1.5*x+3)
	}
	a.Retune()
	r := NewReciprocal[uint64](a, 64)
	r.Predict(7, 12.5)
	r.Predict(3, 8.25)
	r.MaybeRetune(128)

	state := func(c *snapshot.Codec, a *Affine, r *Reciprocal[uint64]) {
		a.State(c)
		r.State(c,
			func(x, y uint64) bool { return x < y },
			func(c *snapshot.Codec, req *uint64) { c.U64(req) })
	}
	encode := func(a *Affine, r *Reciprocal[uint64]) []byte {
		e := snapshot.NewEncoder(1)
		state(e.Codec(), a, r)
		return e.Finish()
	}
	blob := encode(a, r)

	a2 := NewAffine(16)
	r2 := NewReciprocal[uint64](a2, 64)
	d, err := snapshot.NewDecoder(blob, 1)
	if err != nil {
		t.Fatal(err)
	}
	state(d.Codec(), a2, r2)
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	if got := encode(a2, r2); string(got) != string(blob) {
		t.Error("restored state re-encodes to different bytes")
	}
}

// shiftingWindow is the window Affine kept before it stopped shifting:
// append, then copy the newest maxWindow pairs down to the front. The
// sliding views must be indistinguishable from it.
type shiftingWindow struct {
	pred, obs []float64
	max       int
}

func (w *shiftingWindow) observe(p, o float64) {
	w.pred = append(w.pred, p)
	w.obs = append(w.obs, o)
	if len(w.pred) > w.max {
		drop := len(w.pred) - w.max
		w.pred = append(w.pred[:0], w.pred[drop:]...)
		w.obs = append(w.obs[:0], w.obs[drop:]...)
	}
}

// TestAffineWindowMatchesShifting drives a window past three times its
// capacity (several compactions of the backing arrays) and, at every
// step, checks the live window, a refit over it and its checkpoint
// bytes against the shifting reference: same pairs, oldest first, so
// Retune adds in the same order and the fit is bit-identical.
func TestAffineWindowMatchesShifting(t *testing.T) {
	const window = 8
	a := NewAffine(window)
	ref := &shiftingWindow{max: window}
	encode := func(a *Affine) string {
		e := snapshot.NewEncoder(1)
		a.State(e.Codec())
		return string(e.Finish())
	}
	restored := NewAffine(window)
	for i := 0; i < 3*window+5; i++ {
		p := float64(i%7) + 0.25*float64(i)
		o := 1.75*p + float64(i%3)
		a.Observe(p, o)
		ref.observe(p, o)

		if a.ObservationCount() != len(ref.pred) {
			t.Fatalf("step %d: window holds %d pairs, reference %d", i, a.ObservationCount(), len(ref.pred))
		}
		want := &Affine{alpha: 1, pred: ref.pred, obs: ref.obs, maxWindow: window}
		want.Retune()
		a.Retune()
		wa, wb := want.Coeffs()
		if ga, gb := a.Coeffs(); ga != wa || gb != wb {
			t.Fatalf("step %d: fit (%v, %v), shifting reference (%v, %v)", i, ga, gb, wa, wb)
		}
		blob := encode(a)
		if blob != encode(want) {
			t.Fatalf("step %d: checkpoint bytes differ from the shifting reference", i)
		}
		// Restore over a window that is itself mid-slide.
		d, err := snapshot.NewDecoder([]byte(blob), 1)
		if err != nil {
			t.Fatal(err)
		}
		if restored.State(d.Codec()); d.Err() != nil {
			t.Fatal(d.Err())
		}
		if encode(restored) != blob {
			t.Fatalf("step %d: restored window re-encodes differently", i)
		}
		restored.Observe(p, o) // keep its views sliding too
	}
}
