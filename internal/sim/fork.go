package sim

// In-memory forking. Fork methods are the second tier of the state
// capture contract (DESIGN.md "Two-tier state capture"): where
// SnapshotTo/RestoreFrom produce the versioned interchange envelope,
// Fork/ForkFrom produce a live deep clone in microseconds, sharing
// immutable tables and re-seeding derived state exactly as a restore
// would. simlint's statecov rule cross-checks fork bodies against the
// snapshot pair, so every persistent field must be referenced by name.

// Fork returns an independent generator at the same stream position.
// Advancing either copy never perturbs the other.
func (r *RNG) Fork() *RNG {
	return &RNG{state: r.state, inc: r.inc}
}

// ForkFrom makes q an independent deep copy of src, reusing q's
// backing arrays where possible. Both tiers are copied verbatim — the
// snapshot encoder canonicalizes ordering, so any valid layout
// re-encodes to identical bytes.
func (q *TypedQueue[T]) ForkFrom(src *TypedQueue[T]) {
	q.reset()
	if src.near > 0 {
		if q.wheel == nil {
			q.wheel = make([][]Deferred[T], wheelSize)
		}
		for i, b := range src.wheel {
			q.wheel[i] = append(q.wheel[i], b...)
		}
	}
	q.cursor = src.cursor
	q.head = src.head
	q.near = src.near
	q.far = append(q.far, src.far...)
	q.seq = src.seq
	q.watermark = src.watermark
	q.fired = src.fired
}
