package sim

import (
	"sort"

	"repro/internal/snapshot"
)

// Deferred is one scheduled item in a TypedQueue: the target cycle, the
// insertion sequence that breaks same-cycle ties, and the payload.
type Deferred[T any] struct {
	When Cycle
	Seq  uint64
	Item T
}

// wheelSize is the span, in cycles, of a TypedQueue's near tier. The
// longest delays the simulators schedule routinely — a fixed-latency
// memory access (100 cycles) and a corner-to-corner abstract delivery
// on a 32x32 mesh (≈140) — fit with room to spare; anything longer
// (a saturated DRAM oracle's completions) takes the far tier.
const (
	wheelSize = 256
	wheelMask = wheelSize - 1
)

// TypedQueue is a calendar queue of typed items popped in (cycle,
// insertion sequence) order. Items due within wheelSize cycles of the
// cursor sit in a wheel of per-cycle buckets — appended at Schedule,
// so a bucket's order is its Seq order, with no comparisons — and
// everything else (due beyond the wheel's span, or behind the cursor)
// sits in a binary heap. PopUntil merges the two tiers by (When, Seq),
// so the firing order is that total order whatever tier an item
// landed in; the tier layout is unobservable, and State's bytes
// do not depend on it. It holds plain data, not closures, so its
// pending contents can be enumerated into a snapshot and reloaded with
// identical firing order. The zero value is an empty queue.
type TypedQueue[T any] struct {
	// wheel[c&wheelMask] holds the items due at cycle c, for c in
	// [cursor, cursor+wheelSize), in Seq order. Allocated by the first
	// Schedule that lands in it. Only the cursor's bucket is ever
	// partly consumed: head indexes its next item.
	wheel  [][]Deferred[T]
	cursor Cycle
	head   int
	near   int // items in the wheel

	far []Deferred[T] // binary heap on (When, Seq)
	seq uint64

	// watermark is the cycle of the latest popped item; fired marks it
	// valid. Maintained unconditionally, consulted only by simcheck
	// builds.
	watermark Cycle
	fired     bool
}

// Len reports the number of pending items.
func (q *TypedQueue[T]) Len() int { return q.near + len(q.far) }

// Schedule enqueues item to fire at cycle when. Under -tags simcheck,
// scheduling before the cycle of an item that has already fired
// panics: time travel into the past is the canonical way a
// co-simulation coupling bug corrupts results while still "finishing".
func (q *TypedQueue[T]) Schedule(when Cycle, item T) {
	if Checking && q.fired && when < q.watermark {
		Assert(false, "sim: TypedQueue.Schedule(%v) into the past; watermark %v", when, q.watermark)
	}
	q.insert(Deferred[T]{When: when, Seq: q.seq, Item: item})
	q.seq++
	if Checking {
		q.check()
	}
}

// insert files d in the tier its cycle selects. d must follow, in Seq,
// every item already pending at its cycle.
func (q *TypedQueue[T]) insert(d Deferred[T]) {
	if d.When < q.cursor || d.When-q.cursor >= wheelSize {
		q.far = append(q.far, d) //simlint:allow alloc refill of the heap's retained capacity
		q.up(len(q.far) - 1)
		return
	}
	if q.wheel == nil {
		q.wheel = make([][]Deferred[T], wheelSize) //simlint:allow alloc the wheel itself, once per queue
	}
	b := &q.wheel[d.When&wheelMask]
	*b = append(*b, d) //simlint:allow alloc refill of the bucket's retained capacity
	q.near++
}

// PopUntil removes and returns the earliest item scheduled at or before
// cycle until; ok is false when no such item is pending.
func (q *TypedQueue[T]) PopUntil(until Cycle) (d Deferred[T], ok bool) {
	// Bring the cursor to the first occupied bucket at or before until.
	// Buckets it passes are empty, so no wheel item ends up behind it.
	if q.near == 0 {
		if until > q.cursor {
			q.cursor = until
		}
	} else {
		for q.cursor < until && len(q.wheel[q.cursor&wheelMask]) == 0 {
			q.cursor++
		}
	}
	var b []Deferred[T]
	if q.near > 0 && q.cursor <= until {
		b = q.wheel[q.cursor&wheelMask]
	}
	if len(q.far) > 0 && q.far[0].When <= until {
		f := &q.far[0]
		if len(b) == 0 || f.When < q.cursor || (f.When == q.cursor && f.Seq < b[q.head].Seq) {
			d = q.popFar()
			ok = true
		}
	}
	if !ok {
		if len(b) == 0 {
			return d, false
		}
		d = b[q.head]
		var zero Deferred[T]
		b[q.head] = zero
		q.head++
		q.near--
		if q.head == len(b) {
			q.wheel[q.cursor&wheelMask] = b[:0]
			q.head = 0
		}
	}
	q.watermark = d.When
	q.fired = true
	if Checking {
		q.check()
	}
	return d, true
}

// live returns the pending items of bucket i: all of it, except that
// the cursor's bucket has had its first head items popped.
func (q *TypedQueue[T]) live(i int) []Deferred[T] {
	if Cycle(i) == q.cursor&wheelMask {
		return q.wheel[i][q.head:]
	}
	return q.wheel[i]
}

// Pending returns the pending items in firing order.
func (q *TypedQueue[T]) Pending() []Deferred[T] {
	out := make([]Deferred[T], 0, q.Len())
	for i := range q.wheel {
		out = append(out, q.live(i)...)
	}
	out = append(out, q.far...)
	sort.Slice(out, func(i, j int) bool { return before(&out[i], &out[j]) })
	return out
}

// State walks the queue — the sequencing state, then the pending items
// in firing order, item walking each payload. The tier layout is not
// part of it: encoding writes the merged order (Pending), decoding
// re-files every entry from a wheel anchored at the watermark, which no
// pending item of a valid snapshot precedes. Original sequence numbers
// are kept, so same-cycle firing order is exactly that of the saved
// run.
func (q *TypedQueue[T]) State(c *snapshot.Codec, item func(*snapshot.Codec, *T)) {
	c.U64(&q.seq)
	snapshot.As64(c, &q.watermark)
	c.Bool(&q.fired)
	var pending []Deferred[T]
	if c.Decoding() {
		q.reset()
		q.cursor = q.watermark
	} else {
		pending = q.Pending()
	}
	i := 0
	var prev Deferred[T]
	snapshot.Slice(c, &pending, 17, func(c *snapshot.Codec, d *Deferred[T]) { // when + seq + at least one item byte
		snapshot.As64(c, &d.When)
		c.U64(&d.Seq)
		if item(c, &d.Item); c.Err() != nil {
			return
		}
		// Firing order is what lets insert rebuild a bucket in Seq order.
		if d.Seq >= q.seq {
			c.Failf("queue entry %d has seq %d >= next seq %d", i, d.Seq, q.seq)
		} else if i > 0 && !before(&prev, d) {
			c.Failf("queue entry %d (%v, seq %d) is not after entry %d (%v, seq %d)", i, d.When, d.Seq, i-1, prev.When, prev.Seq)
		} else if c.Decoding() {
			q.insert(*d)
		}
		prev = *d
		i++
	})
}

// reset empties both tiers, keeping their capacity.
func (q *TypedQueue[T]) reset() {
	for i := range q.wheel {
		clear(q.wheel[i][:cap(q.wheel[i])])
		q.wheel[i] = q.wheel[i][:0]
	}
	clear(q.far[:cap(q.far)])
	q.far = q.far[:0]
	q.head, q.near = 0, 0
}

// before is the firing order: (When, Seq) ascending.
func before[T any](a, b *Deferred[T]) bool {
	if a.When != b.When {
		return a.When < b.When
	}
	return a.Seq < b.Seq
}

func (q *TypedQueue[T]) popFar() Deferred[T] {
	d := q.far[0]
	last := len(q.far) - 1
	q.far[0] = q.far[last]
	var zero Deferred[T]
	q.far[last] = zero
	q.far = q.far[:last]
	if last > 0 {
		q.down(0)
	}
	return d
}

func (q *TypedQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !before(&q.far[i], &q.far[parent]) {
			return
		}
		q.far[i], q.far[parent] = q.far[parent], q.far[i]
		i = parent
	}
}

func (q *TypedQueue[T]) down(i int) {
	n := len(q.far)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && before(&q.far[l], &q.far[smallest]) {
			smallest = l
		}
		if r < n && before(&q.far[r], &q.far[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.far[i], q.far[smallest] = q.far[smallest], q.far[i]
		i = smallest
	}
}

// check is the simcheck structural recount: every wheel item sits in
// the bucket its cycle maps to, inside the wheel's span, in Seq order;
// the consumed prefix belongs to the cursor's bucket alone; the far
// tier is a heap; and the tiers add up. O(wheel + n) per operation —
// simcheck builds trade speed for proof — and free of allocation
// when it passes.
func (q *TypedQueue[T]) check() {
	if q.head > 0 && q.head >= len(q.wheel[q.cursor&wheelMask]) {
		Assert(false, "sim: TypedQueue head %d outside the cursor's bucket", q.head)
	}
	near := 0
	for i := range q.wheel {
		b := q.live(i)
		for j := range b {
			it := &b[j]
			if it.When&wheelMask != Cycle(i) || it.When < q.cursor || it.When-q.cursor >= wheelSize {
				Assert(false, "sim: TypedQueue item (%v, seq %d) in bucket %d with cursor %v", it.When, it.Seq, i, q.cursor)
			}
			if j > 0 && b[j-1].Seq >= it.Seq {
				Assert(false, "sim: TypedQueue bucket %d out of Seq order: %d then %d", i, b[j-1].Seq, it.Seq)
			}
			if it.Seq >= q.seq {
				Assert(false, "sim: TypedQueue item seq %d >= next seq %d", it.Seq, q.seq)
			}
		}
		near += len(b)
	}
	for i := 1; i < len(q.far); i++ {
		if before(&q.far[i], &q.far[(i-1)/2]) {
			Assert(false, "sim: TypedQueue far tier heap property violated at %d (%v, seq %d)", i, q.far[i].When, q.far[i].Seq)
		}
	}
	if near != q.near {
		Assert(false, "sim: TypedQueue wheel holds %d items, near says %d (far %d)", near, q.near, len(q.far))
	}
}
