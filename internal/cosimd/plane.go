package cosimd

import "sync"

// A session's two observability stores: its event hub, which fans
// events out to /events subscribers, and its flight ring, which keeps
// the recent past for /flight and postmortem dumps.

// Event kinds published on a session's stream.
const (
	// KindState marks a session lifecycle transition (submit, evict,
	// spill, fault-in, done, failed, drain); State and Note say which.
	KindState = "state"
	// KindProgress is the per-slice progress sample: Cycle, Retired,
	// and the slice's consumed Cycles.
	KindProgress = "progress"
	// KindMetrics carries a delta of the session's obs metrics
	// registry since the previous publish (counters as deltas, gauges
	// as current values) in Values.
	KindMetrics = "metrics"
	// KindSpan is one virtual-cycle span (component advance or fullsys
	// tick) forwarded from the session observer's span records.
	KindSpan = "span"
	// KindRetune is one reciprocal-calibration refit instant; Values
	// carries alpha/beta/residual/drift.
	KindRetune = "retune"
	// KindSync is the synthetic first line of an /events response:
	// where the stream is (current state, cycle, and the hub sequence
	// already published), so reconnecting clients can reason about
	// what they missed.
	KindSync = "sync"
)

// Event is one observability-plane event, NDJSON-ready. Seq is
// assigned by the hub at publish time and is strictly increasing per
// stream, so consumers detect drops (a bounded-queue overflow on their
// subscription) as sequence gaps.
type Event struct {
	Seq     uint64 `json:"seq"`
	Kind    string `json:"kind"`
	Session string `json:"session,omitempty"`
	Tenant  string `json:"tenant,omitempty"`
	// Cycle is the simulated cycle the event describes (span start for
	// KindSpan).
	Cycle uint64 `json:"cycle,omitempty"`
	// State/Note annotate lifecycle events.
	State string `json:"state,omitempty"`
	Note  string `json:"note,omitempty"`
	// Name/Track/Dur describe spans (and Name the retuned component).
	Name  string `json:"name,omitempty"`
	Track string `json:"track,omitempty"`
	Dur   uint64 `json:"dur,omitempty"`
	// Retired/Cycles ride on progress events.
	Retired uint64 `json:"retired,omitempty"`
	Cycles  uint64 `json:"cycles,omitempty"`
	// Values carries metric deltas and retune coefficients.
	Values map[string]float64 `json:"values,omitempty"`
}

// hub is one session's broadcast point. Publish is a non-blocking
// enqueue into every subscriber's bounded queue: a subscriber that
// falls behind loses events (drop-and-count, visible as sequence gaps)
// rather than ever blocking the worker that publishes. A nil *hub is a
// session with streaming disabled (Options.EventsBuffer < 0); Publish
// and Close no-op on it, so producers publish unconditionally.
type hub struct {
	mu      sync.Mutex
	buffer  int
	subs    []*Subscriber
	seq     uint64 // the last assigned; every published event takes one
	dropped uint64
	closed  bool
}

// Publish assigns the event the next sequence number and enqueues it
// into every live subscription, counting one drop per full queue. It
// never blocks and never allocates. Publishing on a closed hub is a
// no-op.
func (h *hub) Publish(ev Event) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.seq++
	ev.Seq = h.seq
	for _, sub := range h.subs {
		select {
		case sub.ch <- ev:
		default:
			h.dropped++
		}
	}
}

// Subscribe registers a new subscriber and returns it with the last
// sequence number published before it. On a closed hub the
// subscription's channel is already closed, so consumers uniformly
// range until the channel ends.
func (h *hub) Subscribe() (*Subscriber, uint64) {
	sub := &Subscriber{hub: h, ch: make(chan Event, h.buffer)}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		close(sub.ch)
	} else {
		h.subs = append(h.subs, sub)
	}
	return sub, h.seq
}

// Close ends the stream: every subscription's channel is closed (after
// whatever is already queued drains) and later Publish/Subscribe calls
// find the hub closed. Idempotent.
func (h *hub) Close() {
	if h == nil {
		return
	}
	h.mu.Lock()
	if !h.closed {
		h.closed = true
		for _, sub := range h.subs {
			close(sub.ch)
		}
		h.subs = nil
	}
	h.mu.Unlock()
}

// Stats reports the hub's live subscriptions, the events it accepted
// and the subscriber-queue overflows.
func (h *hub) Stats() ObsStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	return ObsStats{Subscribers: len(h.subs), Published: h.seq, Dropped: h.dropped}
}

// Subscriber is one bounded-queue subscription to a session's events.
// It is live while its hub lists it; its channel is closed when it
// leaves the list, by Cancel or by the hub's Close.
type Subscriber struct {
	hub *hub
	ch  chan Event
}

// Events is the receive side of the subscription; it is closed by
// Cancel or when the session's stream ends.
func (s *Subscriber) Events() <-chan Event { return s.ch }

// Cancel unsubscribes and closes the Events channel. Safe to call
// twice and after the stream ended.
func (s *Subscriber) Cancel() {
	h := s.hub
	h.mu.Lock()
	defer h.mu.Unlock()
	for i, sub := range h.subs {
		if sub == s {
			last := len(h.subs) - 1
			h.subs[i] = h.subs[last]
			h.subs[last] = nil
			h.subs = h.subs[:last]
			close(s.ch)
			return
		}
	}
}

// Flight-entry kinds. Quantum entries are the steady-state samples;
// the rest mark the lifecycle edges that matter in a postmortem.
const (
	FlightQuantum = "quantum"
	FlightSlice   = "slice"
	FlightSubmit  = "submit"
	FlightEvict   = "evict"
	FlightSpill   = "spill"
	FlightFaultIn = "fault-in"
	FlightDone    = "done"
	FlightFailed  = "failed"
	FlightDrain   = "drain"
)

// FlightEntry is one ring slot: a per-quantum sample or a lifecycle
// transition. It is a flat value type so recording is a struct copy —
// no allocation, no pointers for the ring to retain.
type FlightEntry struct {
	Cycle uint64 `json:"cycle"`
	Kind  string `json:"kind"`
	// Quantum-sample payload: cumulative retired instructions, and
	// since-last-sample deltas for deliveries, memory completions, and
	// quantum-boundary clamps.
	Retired    uint64 `json:"retired,omitempty"`
	Delivered  uint64 `json:"delivered,omitempty"`
	MemDone    uint64 `json:"mem_done,omitempty"`
	ClampedNet uint64 `json:"clamped_net,omitempty"`
	ClampedMem uint64 `json:"clamped_mem,omitempty"`
	// InFlight is the network's in-flight message count at the sample.
	InFlight int `json:"inflight,omitempty"`
	// WallNanos is the wall-clock cost of advancing this quantum (or
	// phase, for transition entries).
	WallNanos int64 `json:"wall_ns,omitempty"`
	// Note annotates transitions (eviction tier, error text, ...).
	Note string `json:"note,omitempty"`
}

// FlightDump is a flight-ring snapshot: the retained entries oldest
// first, plus how deep the ring is and how many entries were ever
// recorded.
type FlightDump struct {
	Depth   int           `json:"depth"`
	Total   uint64        `json:"total"`
	Entries []FlightEntry `json:"entries"`
}

// flightRecorder is a session's fixed-depth ring of recent entries —
// its "black box". Recording overwrites the oldest slot once the ring
// is full; total keeps counting so a dump says how much history was
// shed. A nil *flightRecorder is a session with recording disabled
// (Options.FlightDepth < 0): Record no-ops and Total is zero.
type flightRecorder struct {
	mu    sync.Mutex
	ring  []FlightEntry
	next  int
	total uint64
}

// Record appends an entry, overwriting the oldest once the ring is
// full. O(1), allocation-free.
func (f *flightRecorder) Record(e FlightEntry) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.ring[f.next] = e
	f.next = (f.next + 1) % len(f.ring)
	f.total++
	f.mu.Unlock()
}

// Total reports how many entries were ever recorded.
func (f *flightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// Snapshot copies the retained entries out, oldest first.
func (f *flightRecorder) Snapshot() FlightDump {
	f.mu.Lock()
	defer f.mu.Unlock()
	d := FlightDump{Depth: len(f.ring), Total: f.total, Entries: make([]FlightEntry, 0, len(f.ring))}
	if f.total >= uint64(len(f.ring)) { // wrapped: the oldest is at next
		d.Entries = append(d.Entries, f.ring[f.next:]...)
	}
	d.Entries = append(d.Entries, f.ring[:f.next]...)
	return d
}
