package cosimd

import (
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHubFanOutAndSeq(t *testing.T) {
	h := &hub{buffer: 8}
	a, _ := h.Subscribe()
	b, _ := h.Subscribe()
	for i := 0; i < 3; i++ {
		h.Publish(Event{Kind: KindProgress, Cycle: uint64(i)})
	}
	for name, sub := range map[string]*Subscriber{"a": a, "b": b} {
		for want := uint64(1); want <= 3; want++ {
			ev := <-sub.Events()
			if ev.Seq != want {
				t.Fatalf("%s: seq %d, want %d", name, ev.Seq, want)
			}
		}
	}
	st := h.Stats()
	if st.Published != 3 || st.Dropped != 0 || st.Subscribers != 2 {
		t.Fatalf("stats %+v", st)
	}
	if _, seq := h.Subscribe(); seq != 3 {
		t.Fatalf("a late subscriber joined at seq %d, want 3", seq)
	}
}

func TestHubDropAndCount(t *testing.T) {
	h := &hub{buffer: 2}
	slow, _ := h.Subscribe()
	fast, _ := h.Subscribe()
	go func() {
		for range fast.Events() {
		}
	}()
	// The slow subscriber never reads: everything past its buffer of 2
	// must drop without Publish ever blocking.
	for i := 0; i < 10; i++ {
		h.Publish(Event{Kind: KindProgress})
	}
	if st := h.Stats(); st.Dropped < 8 || st.Published != 10 {
		t.Fatalf("hub dropped %d of %d, want >= 8 of 10", st.Dropped, st.Published)
	}
	// Drops are at the tail: the two queued events are the first two.
	if ev := <-slow.Events(); ev.Seq != 1 {
		t.Fatalf("first queued seq %d", ev.Seq)
	}
	h.Close()
	fast.Cancel() // after close: must not panic
}

func TestHubCloseAndCancel(t *testing.T) {
	h := &hub{buffer: 4}
	sub, _ := h.Subscribe()
	h.Publish(Event{Kind: KindState, State: "done"})
	h.Close()
	ev, ok := <-sub.Events()
	if !ok || ev.Kind != KindState {
		t.Fatalf("queued event lost at close: %v %v", ev, ok)
	}
	if _, ok := <-sub.Events(); ok {
		t.Fatal("channel still open after Close")
	}
	// Subscribing after close yields an already-closed stream.
	late, _ := h.Subscribe()
	if _, ok := <-late.Events(); ok {
		t.Fatal("late subscription not closed")
	}
	h.Publish(Event{}) // no-op, must not panic
	sub.Cancel()       // idempotent

	// Cancel mid-stream removes the subscription.
	h2 := &hub{buffer: 4}
	s1, _ := h2.Subscribe()
	s2, _ := h2.Subscribe()
	s1.Cancel()
	h2.Publish(Event{Kind: KindProgress})
	if _, ok := <-s1.Events(); ok {
		t.Fatal("cancelled subscription received event")
	}
	if ev := <-s2.Events(); ev.Seq != 1 {
		t.Fatalf("surviving subscription seq %d", ev.Seq)
	}
	if st := h2.Stats(); st.Subscribers != 1 {
		t.Fatalf("subscribers %d after cancel", st.Subscribers)
	}
}

// TestHubNilSafe: a session with streaming disabled has a nil hub, and
// producers publish to it and close it unconditionally.
func TestHubNilSafe(t *testing.T) {
	var h *hub
	h.Publish(Event{})
	h.Close()
}

// TestPublishAllocations backs the plane's cost model: a worker never
// allocates to be observed, whether its subscribers keep up (1 or 8
// drained subscriptions) or have stalled (every send takes the drop
// path).
func TestPublishAllocations(t *testing.T) {
	ev := Event{Kind: KindProgress, Session: "s", Tenant: "t"}
	for _, subs := range []int{1, 8} {
		h := &hub{buffer: 1024}
		var wg sync.WaitGroup
		for i := 0; i < subs; i++ {
			sub, _ := h.Subscribe()
			wg.Add(1)
			go func() {
				defer wg.Done()
				for range sub.Events() {
				}
			}()
		}
		if a := testing.AllocsPerRun(1000, func() { h.Publish(ev) }); a != 0 {
			t.Errorf("publish to %d drained subscribers: %v allocs, want 0", subs, a)
		}
		h.Close()
		wg.Wait()
	}
	h := &hub{buffer: 1}
	h.Subscribe()
	h.Publish(ev) // fills the queue
	if a := testing.AllocsPerRun(1000, func() { h.Publish(ev) }); a != 0 {
		t.Errorf("publish to a full queue: %v allocs, want 0", a)
	}
	if st := h.Stats(); st.Dropped == 0 {
		t.Fatal("the full-queue case never took the drop path")
	}
}

func TestFlightRecordAllocations(t *testing.T) {
	f := &flightRecorder{ring: make([]FlightEntry, 64)}
	e := FlightEntry{Kind: FlightQuantum, Retired: 1, InFlight: 3}
	if a := testing.AllocsPerRun(1000, func() { e.Cycle++; f.Record(e) }); a != 0 {
		t.Errorf("flight record: %v allocs, want 0", a)
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := &flightRecorder{ring: make([]FlightEntry, 4)}
	if d := f.Snapshot(); len(d.Entries) != 0 || d.Depth != 4 {
		t.Fatalf("empty dump %+v", d)
	}
	for i := 0; i < 3; i++ {
		f.Record(FlightEntry{Cycle: uint64(i), Kind: FlightQuantum})
	}
	d := f.Snapshot()
	if len(d.Entries) != 3 || d.Entries[0].Cycle != 0 || d.Entries[2].Cycle != 2 {
		t.Fatalf("partial dump %+v", d)
	}
	f.Record(FlightEntry{Cycle: 3, Kind: FlightQuantum}) // exactly full
	d = f.Snapshot()
	if len(d.Entries) != 4 || d.Entries[0].Cycle != 0 || d.Entries[3].Cycle != 3 {
		t.Fatalf("full dump %+v", d)
	}
	for i := 4; i < 10; i++ {
		f.Record(FlightEntry{Cycle: uint64(i), Kind: FlightQuantum})
	}
	d = f.Snapshot()
	if d.Total != 10 || f.Total() != 10 || len(d.Entries) != 4 {
		t.Fatalf("wrapped dump total=%d len=%d", d.Total, len(d.Entries))
	}
	for i, e := range d.Entries {
		if e.Cycle != uint64(6+i) {
			t.Fatalf("entry %d cycle %d, want %d (oldest-first)", i, e.Cycle, 6+i)
		}
	}

	var nilf *flightRecorder // recording disabled
	nilf.Record(FlightEntry{})
	if nilf.Total() != 0 {
		t.Fatal("nil recorder not inert")
	}
}

func TestPromPage(t *testing.T) {
	var p promPage
	p.family("cosimd_workers", "gauge", "configured worker count")
	p.sample("cosimd_workers", 8)
	p.family("cosimd_sessions", "gauge", "sessions by state")
	p.sample("cosimd_sessions", 3, "state", "running")
	p.sample("cosimd_sessions", 1, "state", `we"ird\`, "tenant", "a\nb")
	out := p.String()
	checkExposition(t, out)
	if !strings.Contains(out, "cosimd_workers 8\n") ||
		!strings.Contains(out, `cosimd_sessions{state="running"} 3`) {
		t.Fatalf("samples wrong:\n%s", out)
	}
	if !strings.Contains(out, `{state="we\"ird\\",tenant="a\nb"} 1`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestWallHist(t *testing.T) {
	var h wallHist
	h.observe(500 * time.Nanosecond) // <= 1 µs bucket
	h.observe(3 * time.Microsecond)  // <= 4 µs
	h.observe(time.Minute)           // beyond the last bound: +Inf only
	var p promPage
	p.family("wall_seconds", "histogram", "phase wall cost")
	h.writeProm(&p, "wall_seconds", "slice")
	out := p.String()
	checkExposition(t, out)
	if !strings.Contains(out, `wall_seconds_bucket{phase="slice",le="1e-06"} 1`) {
		t.Fatalf("first bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `le="+Inf"} 3`) {
		t.Fatalf("+Inf bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `wall_seconds_count{phase="slice"} 3`) {
		t.Fatalf("count sample wrong:\n%s", out)
	}
	// Cumulative monotonicity across the finite buckets.
	prev := -1.0
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "wall_seconds_bucket") {
			continue
		}
		v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts not cumulative:\n%s", out)
		}
		prev = v
	}
}
