package sim

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/snapshot"
)

// popAll drains q through until, returning the items in pop order.
func popAll(q *TypedQueue[int], until Cycle) []int {
	var out []int
	for {
		d, ok := q.PopUntil(until)
		if !ok {
			return out
		}
		out = append(out, d.Item)
	}
}

func TestTypedQueueOrdering(t *testing.T) {
	var q TypedQueue[int]
	q.Schedule(5, 5)
	q.Schedule(1, 1)
	q.Schedule(3, 30)
	q.Schedule(3, 31) // same-cycle FIFO
	q.Schedule(2, 2)
	got := popAll(&q, 3)
	want := []int{1, 2, 30, 31}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("order %v, want %v", got, want)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d, want 1", q.Len())
	}
	if d, ok := q.PopUntil(4); ok {
		t.Fatalf("popped %+v before its cycle", d)
	}
	if d, ok := q.PopUntil(5); !ok || d.When != 5 || d.Item != 5 {
		t.Fatalf("pop = %+v %v", d, ok)
	}
}

// TestTypedQueueCascade: an item scheduled while its own cycle is being
// drained — at that cycle or a later one inside the window — fires in
// the same drain, after everything already pending at its cycle.
func TestTypedQueueCascade(t *testing.T) {
	var q TypedQueue[string]
	q.Schedule(1, "a")
	q.Schedule(1, "b")
	var fired []string
	for {
		d, ok := q.PopUntil(10)
		if !ok {
			break
		}
		fired = append(fired, d.Item)
		if d.Item == "a" {
			q.Schedule(2, "d")
			q.Schedule(1, "c")
		}
	}
	if got := fmt.Sprint(fired); got != "[a b c d]" {
		t.Fatalf("cascade: %s", got)
	}
}

func TestTypedQueueZeroValueAndEmptyPops(t *testing.T) {
	var q TypedQueue[int]
	if d, ok := q.PopUntil(math.MaxUint64); ok || q.Len() != 0 {
		t.Fatalf("pop of empty queue returned %+v", d)
	}
	// The empty pop moved the cursor to the end of time: everything
	// scheduled now is behind it, and must still fire in order.
	q.Schedule(9, 9)
	q.Schedule(4, 4)
	q.Schedule(4, 5)
	if got := fmt.Sprint(popAll(&q, 100)); got != "[4 5 9]" {
		t.Fatalf("order %s", got)
	}
}

// TestScheduleAtWatermarkAllowed: scheduling AT the cycle of the most
// recently fired item is legal (delivery at the current cycle is how
// the co-sim hands messages back); only strictly-past schedules are a
// contract violation (and only simcheck builds enforce it).
func TestScheduleAtWatermarkAllowed(t *testing.T) {
	var q TypedQueue[int]
	q.Schedule(10, 0)
	if _, ok := q.PopUntil(10); !ok {
		t.Fatal("nothing popped")
	}
	q.Schedule(10, 1) // must not panic, even under -tags simcheck
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}

// Property: items fire in nondecreasing time order regardless of
// insertion order, whichever tier they land in.
func TestTypedQueueTimeOrderProperty(t *testing.T) {
	f := func(times []uint16) bool {
		var q TypedQueue[Cycle]
		for _, tm := range times {
			q.Schedule(Cycle(tm), Cycle(tm))
		}
		var fired []Cycle
		for {
			d, ok := q.PopUntil(math.MaxUint16)
			if !ok {
				break
			}
			fired = append(fired, d.Item)
		}
		return len(fired) == len(times) &&
			sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestAssertIsFreeWhenOff: in production builds sim.Assert must be a
// no-op so invariants can stay in hot paths unconditionally.
func TestAssertIsFreeWhenOff(t *testing.T) {
	if Checking {
		t.Skip("simcheck build: Assert is armed (covered by check_test.go)")
	}
	Assert(false, "must not panic when simcheck is off")
}

// TestTypedQueueSteadyStateAllocs: once the buckets and the far tier
// have grown to the traffic's shape, Schedule and PopUntil allocate
// nothing.
func TestTypedQueueSteadyStateAllocs(t *testing.T) {
	if Checking {
		t.Skip("simcheck build: the recount's failure paths box their arguments")
	}
	var q TypedQueue[[5]uint64]
	now := Cycle(0)
	round := func() {
		for i := 0; i < 3; i++ {
			q.Schedule(now+Cycle(4*i), [5]uint64{})
			q.Schedule(now+100, [5]uint64{})
			q.Schedule(now+wheelSize+50, [5]uint64{}) // far tier
		}
		for {
			if _, ok := q.PopUntil(now); !ok {
				break
			}
		}
		now++
	}
	for i := 0; i < 4*wheelSize; i++ {
		round()
	}
	if a := testing.AllocsPerRun(1000, round); a != 0 {
		t.Fatalf("steady-state Schedule/PopUntil allocates %v per round, want 0", a)
	}
}

// refQueue is the binary heap TypedQueue was before it became a
// calendar queue, kept verbatim as the reference the calendar is
// compared against: same pop order, same snapshot bytes.
type refQueue[T any] struct {
	heap      []Deferred[T]
	seq       uint64
	watermark Cycle
	fired     bool
}

func (q *refQueue[T]) Len() int { return len(q.heap) }

func (q *refQueue[T]) Schedule(when Cycle, item T) {
	q.heap = append(q.heap, Deferred[T]{When: when, Seq: q.seq, Item: item})
	q.seq++
	q.up(len(q.heap) - 1)
}

func (q *refQueue[T]) PopUntil(until Cycle) (d Deferred[T], ok bool) {
	if len(q.heap) == 0 || q.heap[0].When > until {
		return d, false
	}
	d = q.heap[0]
	last := len(q.heap) - 1
	q.heap[0] = q.heap[last]
	var zero Deferred[T]
	q.heap[last] = zero
	q.heap = q.heap[:last]
	if last > 0 {
		q.down(0)
	}
	q.watermark = d.When
	q.fired = true
	return d, true
}

// encodeTo writes the reference queue field by field, in the order of
// its heap sorted by firing time: the bytes TypedQueue.State must
// produce.
func (q *refQueue[T]) encodeTo(c *snapshot.Codec, enc func(*snapshot.Codec, *T)) {
	c.U64(&q.seq)
	snapshot.As64(c, &q.watermark)
	c.Bool(&q.fired)
	sorted := make([]Deferred[T], len(q.heap))
	copy(sorted, q.heap)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].When != sorted[j].When {
			return sorted[i].When < sorted[j].When
		}
		return sorted[i].Seq < sorted[j].Seq
	})
	c.Len(len(sorted), 0)
	for _, d := range sorted {
		snapshot.As64(c, &d.When)
		c.U64(&d.Seq)
		enc(c, &d.Item)
	}
}

func (q *refQueue[T]) less(i, j int) bool {
	a, b := q.heap[i], q.heap[j]
	if a.When != b.When {
		return a.When < b.When
	}
	return a.Seq < b.Seq
}

func (q *refQueue[T]) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !q.less(i, parent) {
			return
		}
		q.heap[i], q.heap[parent] = q.heap[parent], q.heap[i]
		i = parent
	}
}

func (q *refQueue[T]) down(i int) {
	n := len(q.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && q.less(l, smallest) {
			smallest = l
		}
		if r < n && q.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		q.heap[i], q.heap[smallest] = q.heap[smallest], q.heap[i]
		i = smallest
	}
}

func stateInt(c *snapshot.Codec, v *int) { c.Int(v) }

// Calendar-program opcodes; an op is two bytes, (opcode, argument).
const (
	opNear     = iota // one item within 8 cycles (0: the cycle being drained)
	opBurst           // 2–5 items on one cycle within 16 cycles
	opSpan            // one item up to 255 cycles out: both sides of the wheel's edge as the cursor lags
	opFar             // one item 200–965 cycles out
	opRevisit         // one item on a cycle scheduled before: same-cycle items across tiers
	opBehind          // one item between the watermark and now: behind the cursor
	opStep            // drain through now+1
	opJump            // drain through now+64+arg
	opNibble          // pop at most 1–3 items at now: leaves a bucket partly consumed
	opPast            // one pop with until before now
	opIdleJump        // if empty: an empty pop 1000+ cycles on
	opSnapshot        // compare Len and snapshot bytes
	opRestore         // replace a queue by its snapshot→restore image
	opFork            // grow the family by (or replace a member with) a snapshot→restore copy of another, as core.Cosim.Fork makes one
	numCalOps
)

// calendarTiers counts, over a program, what the test exists to reach.
type calendarTiers struct{ near, far, late, forks, restores int }

// runCalendarProgram drives a family of TypedQueues — the original plus
// the restored and forked copies the program asks for — and the
// reference heap through the same operations, comparing every pop.
func runCalendarProgram(prog []byte) (calendarTiers, error) {
	var (
		ref     refQueue[int]
		qs      = []*TypedQueue[int]{{}}
		now     Cycle
		nextID  int
		targets [4]Cycle
		seen    calendarTiers
	)
	schedule := func(when Cycle) {
		for _, q := range qs[:1] {
			switch {
			case when < q.cursor:
				seen.late++
			case when-q.cursor >= wheelSize:
				seen.far++
			default:
				seen.near++
			}
		}
		ref.Schedule(when, nextID)
		for _, q := range qs {
			q.Schedule(when, nextID)
		}
		targets[nextID%len(targets)] = when
		nextID++
	}
	// pop pops once from every queue; done reports the reference ran dry.
	pop := func(until Cycle) (done bool, err error) {
		want, wok := ref.PopUntil(until)
		for i, q := range qs {
			got, ok := q.PopUntil(until)
			if ok != wok || got != want {
				return false, fmt.Errorf("queue %d PopUntil(%v) = %+v %v, reference %+v %v", i, until, got, ok, want, wok)
			}
			if q.Len() != ref.Len() {
				return false, fmt.Errorf("queue %d Len %d, reference %d", i, q.Len(), ref.Len())
			}
		}
		return !wok, nil
	}
	drain := func(until Cycle) error {
		for {
			if done, err := pop(until); done || err != nil {
				return err
			}
		}
	}
	encode := func(q *TypedQueue[int]) []byte {
		blob, _ := snapshot.Seal(0, func(c *snapshot.Codec) error { q.State(c, stateInt); return nil })
		return blob
	}
	restore := func(dst, src *TypedQueue[int]) error {
		return snapshot.Open(encode(src), 0, func(c *snapshot.Codec) error { dst.State(c, stateInt); return nil })
	}
	for pc := 0; pc+1 < len(prog); pc += 2 {
		op, arg := prog[pc]%numCalOps, Cycle(prog[pc+1])
		var err error
		switch op {
		case opNear:
			schedule(now + arg%8)
		case opBurst:
			for i := Cycle(0); i < 2+arg%4; i++ {
				schedule(now + arg>>4)
			}
		case opSpan:
			schedule(now + arg)
		case opFar:
			schedule(now + 200 + 3*arg)
		case opRevisit:
			if when := targets[arg%4]; when >= ref.watermark {
				schedule(when)
			}
		case opBehind:
			wm := ref.watermark
			if wm > now {
				wm = now
			}
			schedule(wm + arg%(now-wm+1))
		case opStep:
			now++
			err = drain(now)
		case opJump:
			now += 64 + arg
			err = drain(now)
		case opNibble:
			for i := Cycle(0); i <= arg%3 && err == nil; i++ {
				_, err = pop(now)
			}
		case opPast:
			_, err = pop(now - arg%(now+1)%8)
		case opIdleJump:
			if ref.Len() == 0 {
				now += 1000 + arg
				_, err = pop(now)
			}
		case opSnapshot:
			want, _ := snapshot.Seal(0, func(c *snapshot.Codec) error { ref.encodeTo(c, stateInt); return nil })
			for i, q := range qs {
				if got := encode(q); !bytes.Equal(got, want) {
					err = fmt.Errorf("queue %d snapshot differs from the reference's (%d vs %d bytes)", i, len(got), len(want))
				}
			}
		case opRestore:
			// Into a used queue half the time: restore must not keep
			// anything of what it replaces.
			dst := &TypedQueue[int]{}
			if arg&0x80 != 0 {
				dst = qs[int(arg>>2)%len(qs)]
			}
			err = restore(dst, qs[int(arg)%len(qs)])
			qs[int(arg>>2)%len(qs)] = dst
			seen.restores++
		case opFork:
			// Into a fresh queue until the family has three members,
			// then over a used one.
			src := qs[int(arg)%len(qs)]
			if len(qs) < 3 {
				qs = append(qs, &TypedQueue[int]{})
				err = restore(qs[len(qs)-1], src)
				seen.forks++
			} else if f := qs[1+int(arg>>4)%2]; f != src {
				err = restore(f, src)
				seen.forks++
			}
		}
		if err != nil {
			return seen, fmt.Errorf("op %d (%d, %d) at %v: %w", pc/2, op, arg, now, err)
		}
	}
	// Everything still pending, in order.
	return seen, drain(math.MaxUint64)
}

// calendarSeeds are hand-written programs, one per mechanism; they are
// also the committed fuzz corpus (testdata/fuzz/FuzzCalendarQueue).
var calendarSeeds = map[string][]byte{
	// Same-cycle bursts drained one cycle at a time.
	"bursts": {opBurst, 0x03, opBurst, 0x13, opNear, 0, opStep, 0, opBurst, 0x02, opStep, 0, opStep, 0, opSnapshot, 0},
	// An item lands in the far tier at now+200+3*20=260; 64 cycles on,
	// the same cycle is inside the wheel and gets two more: the tiers
	// must merge by Seq.
	"merge-tiers": {opFar, 20, opJump, 0, opRevisit, 0, opRevisit, 0, opSnapshot, 0, opJump, 200},
	// Nibble a bucket, schedule into it, and behind it.
	"behind-cursor": {opBurst, 0x03, opNear, 2, opStep, 0, opStep, 0, opNibble, 0, opBehind, 1, opNear, 0, opBehind, 0, opSnapshot, 0, opStep, 0},
	// An empty pop far ahead, then schedules behind the cursor it left.
	"idle-jump": {opIdleJump, 5, opBehind, 200, opBehind, 7, opNear, 3, opPast, 3, opStep, 0},
	// Fork and restore with both tiers and a part-consumed bucket, then
	// keep going in lockstep.
	"fork-restore": {opBurst, 0x03, opFar, 1, opFar, 90, opSpan, 255, opNibble, 1, opFork, 0, opRestore, 0x80, opRestore, 1, opSnapshot, 0,
		opStep, 0, opNear, 0, opFork, 0x12, opJump, 150, opRevisit, 1, opSnapshot, 0, opJump, 255},
}

func TestCalendarQueueMatchesHeap(t *testing.T) {
	for name, prog := range calendarSeeds {
		if _, err := runCalendarProgram(prog); err != nil {
			t.Errorf("seed %s: %v", name, err)
		}
	}
	var total calendarTiers
	rng := NewRNG(16, 1)
	for i := 0; i < 400; i++ {
		prog := make([]byte, 2*(50+rng.Intn(400)))
		for j := range prog {
			prog[j] = byte(rng.Uint32())
		}
		seen, err := runCalendarProgram(prog)
		if err != nil {
			t.Fatalf("program %d: %v", i, err)
		}
		total.near += seen.near
		total.far += seen.far
		total.late += seen.late
		total.forks += seen.forks
		total.restores += seen.restores
	}
	if total.near == 0 || total.far == 0 || total.late == 0 || total.forks == 0 || total.restores == 0 {
		t.Fatalf("the programs did not reach every tier and capture path: %+v", total)
	}
}

func FuzzCalendarQueue(f *testing.F) {
	for _, prog := range calendarSeeds {
		f.Add(prog)
	}
	f.Fuzz(func(t *testing.T, prog []byte) {
		if _, err := runCalendarProgram(prog); err != nil {
			t.Fatal(err)
		}
	})
}
