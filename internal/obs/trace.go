package obs

import (
	"encoding/json"
	"io"
	"strconv"

	"repro/internal/sim"
)

// Event is one Chrome trace event (the trace_event JSON schema Perfetto
// and chrome://tracing load). Timestamps are VIRTUAL: one trace "us" is
// one target cycle, so span widths in the viewer read directly as
// simulated time, independent of host speed. Optional host-time
// measurements ride along in Args (see Options.Wall). Args values are
// numbers or strings; encoding/json sorts the keys, so equal events
// render equal bytes.
type Event struct {
	Name string                 `json:"name"`
	Cat  string                 `json:"cat,omitempty"`
	Ph   string                 `json:"ph"`
	Ts   uint64                 `json:"ts"`
	Dur  uint64                 `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Trace accumulates trace events for one run. Event capacity is
// bounded; once full, further events are counted as dropped rather
// than silently discarded (the count is written into the trace
// header). The zero value is unusable; Observers create one.
type Trace struct {
	events  []Event
	tracks  []string
	byTrack map[string]int
	cap     int
	dropped uint64
	sink    func(Event)
}

// DefaultTraceCap bounds an observer's in-memory trace events (~1M
// events, a few hundred MB of JSON at most).
const DefaultTraceCap = 1 << 20

// newTrace returns an empty trace with the given event capacity.
func newTrace(capEvents int) *Trace {
	return &Trace{byTrack: make(map[string]int), cap: capEvents}
}

// Track registers (or finds) a named track — one timeline row in the
// viewer, identified by tid — and returns its id. Registration order
// is the tid order, so deterministic callers get deterministic ids.
func (t *Trace) Track(name string) int {
	if t == nil {
		return 0
	}
	if id, ok := t.byTrack[name]; ok {
		return id
	}
	id := len(t.tracks)
	t.tracks = append(t.tracks, name)
	t.byTrack[name] = id
	return id
}

// SetSink diverts subsequent events to fn instead of the in-memory
// buffer — the subscription surface for streaming consumers. With a
// sink installed the trace retains nothing itself (Len stays where it
// was, the capacity bound is moot), so a long-lived session can trace
// forever without growing; the sink owns any bounding. Passing nil
// restores buffering. Nil-safe.
func (t *Trace) SetSink(fn func(Event)) {
	if t == nil {
		return
	}
	t.sink = fn
}

// TrackNames returns the registered track names indexed by tid, so
// sink consumers can resolve Event.Tid without reaching into the
// trace. The returned slice is shared; treat it as read-only.
func (t *Trace) TrackNames() []string {
	if t == nil {
		return nil
	}
	return t.tracks
}

// add appends one event, honouring the capacity bound — or hands it to
// the sink when one is installed.
func (t *Trace) add(e Event) {
	if t.sink != nil {
		t.sink(e)
		return
	}
	if len(t.events) >= t.cap {
		t.dropped++
		return
	}
	t.events = append(t.events, e)
}

// Span records a complete ("X") event covering [start, end) cycles on
// a track. A nil trace is the disabled path.
func (t *Trace) Span(tid int, name string, start, end sim.Cycle, args map[string]interface{}) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: "X", Ts: uint64(start), Dur: uint64(end - start), Tid: tid, Args: args})
}

// Instant records a thread-scoped instant ("i") event at a cycle.
func (t *Trace) Instant(tid int, name string, at sim.Cycle, args map[string]interface{}) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: "i", Ts: uint64(at), Tid: tid, S: "t", Args: args})
}

// Counter records a counter ("C") sample at a cycle; the viewer draws
// one area chart per counter name.
func (t *Trace) Counter(name string, at sim.Cycle, value float64) {
	if t == nil {
		return
	}
	t.add(Event{Name: name, Ph: "C", Ts: uint64(at), Args: map[string]interface{}{"value": value}})
}

// Len reports recorded (non-dropped) events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.events)
}

// Dropped reports events discarded at the capacity bound.
func (t *Trace) Dropped() uint64 {
	if t == nil {
		return 0
	}
	return t.dropped
}

// traceJSON is the document schema: the traceEvents array Perfetto
// expects, plus a header naming the virtual clock and the drop count.
type traceJSON struct {
	TraceEvents []Event           `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

// Write renders the trace as a Chrome trace-event JSON document: one
// thread_name metadata record per track, then every event in recorded
// order. Equal traces render equal bytes.
func (t *Trace) Write(w io.Writer) error {
	doc := traceJSON{
		TraceEvents: make([]Event, 0, len(t.tracks)+len(t.events)),
		OtherData: map[string]string{
			"clock":   "virtual-cycles (1us = 1 cycle)",
			"dropped": strconv.FormatUint(t.dropped, 10),
		},
	}
	for id, name := range t.tracks {
		doc.TraceEvents = append(doc.TraceEvents, Event{
			Name: "thread_name", Ph: "M", Tid: id,
			Args: map[string]interface{}{"name": name},
		})
	}
	doc.TraceEvents = append(doc.TraceEvents, t.events...)
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
