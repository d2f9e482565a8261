//go:build simcheck

package sim

import (
	"strings"
	"testing"
)

// mustPanic runs fn and returns the recovered panic message, failing
// the test if fn returns normally.
func mustPanic(t *testing.T, fn func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic, got none")
		}
		m, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		msg = m
	}()
	fn()
	return ""
}

// TestSchedulePastPanics: once an item has fired, scheduling before
// its cycle is time travel and must panic under simcheck.
func TestSchedulePastPanics(t *testing.T) {
	var q TypedQueue[int]
	q.Schedule(10, 0)
	if _, ok := q.PopUntil(10); !ok {
		t.Fatal("nothing fired")
	}
	msg := mustPanic(t, func() { q.Schedule(5, 1) })
	if !strings.Contains(msg, "into the past") {
		t.Errorf("panic message %q", msg)
	}
}

// TestSchedulePastAllowedBeforeFirstFire: the watermark only arms once
// an item has actually fired; arbitrary schedule order before that is
// fine (construction time).
func TestSchedulePastAllowedBeforeFirstFire(t *testing.T) {
	var q TypedQueue[int]
	q.Schedule(10, 0)
	q.Schedule(2, 1) // earlier than a pending item: legal
	if q.Len() != 2 {
		t.Fatalf("len = %d", q.Len())
	}
}

// TestAssertArmed: sim.Assert panics with the formatted message under
// simcheck.
func TestAssertArmed(t *testing.T) {
	if !Checking {
		t.Fatal("Checking must be true under -tags simcheck")
	}
	Assert(true, "no panic on true")
	msg := mustPanic(t, func() { Assert(false, "quantum %d", 7) })
	if !strings.Contains(msg, "quantum 7") {
		t.Errorf("panic message %q", msg)
	}
}

// loadedQueue returns a queue with items in both tiers and a partly
// consumed cursor bucket.
func loadedQueue() *TypedQueue[int] {
	q := &TypedQueue[int]{}
	for i := 0; i < 64; i++ {
		q.Schedule(Cycle(3+i%7), i)
		q.Schedule(Cycle(wheelSize+i), i)
	}
	for i := 0; i < 5; i++ {
		q.PopUntil(3)
	}
	return q
}

// TestRecountCatchesCorruption: each structural fault the recount
// exists for panics at the next operation.
func TestRecountCatchesCorruption(t *testing.T) {
	faults := map[string]func(q *TypedQueue[int]){
		"wrong slot":   func(q *TypedQueue[int]) { q.wheel[5][0].When = 6 },
		"seq order":    func(q *TypedQueue[int]) { b := q.wheel[5]; b[0], b[1] = b[1], b[0] },
		"tier count":   func(q *TypedQueue[int]) { q.near-- },
		"stale head":   func(q *TypedQueue[int]) { q.head = len(q.wheel[q.cursor&wheelMask]) },
		"far not heap": func(q *TypedQueue[int]) { q.far[0], q.far[len(q.far)-1] = q.far[len(q.far)-1], q.far[0] },
	}
	for name, corrupt := range faults {
		q := loadedQueue()
		corrupt(q)
		if msg := mustPanic(t, func() { q.Schedule(50, 0) }); !strings.Contains(msg, "TypedQueue") {
			t.Errorf("%s: panic message %q", name, msg)
		}
	}
}

// TestRecountIsAllocFree: the passing recount must not allocate, or
// simcheck runs would measure a different program.
func TestRecountIsAllocFree(t *testing.T) {
	q := loadedQueue()
	if a := testing.AllocsPerRun(100, q.check); a != 0 {
		t.Fatalf("passing recount allocates %v per run, want 0", a)
	}
}
