package obs

import (
	"encoding/json"
	"io"
	"strconv"
)

// event is one Chrome trace event (the trace_event JSON schema Perfetto
// and chrome://tracing load). Timestamps are VIRTUAL: one trace "us" is
// one target cycle, so span widths in the viewer read directly as
// simulated time, independent of host speed. Optional host-time
// measurements ride along in Args (see Options.Wall). Args values are
// numbers or strings; encoding/json sorts the keys, so equal events
// render equal bytes.
type event struct {
	Name string                 `json:"name"`
	Ph   string                 `json:"ph"`
	Ts   uint64                 `json:"ts"`
	Dur  uint64                 `json:"dur,omitempty"`
	Pid  int                    `json:"pid"`
	Tid  int                    `json:"tid"`
	S    string                 `json:"s,omitempty"`
	Args map[string]interface{} `json:"args,omitempty"`
}

// Trace buffers one run's spans, retunes and counter samples as typed
// records, and renders them as Chrome trace events only in Write.
// Capacity is bounded; once full, further records are counted as
// dropped rather than silently discarded (the count is written into
// the trace header). Observers create one with Options.Trace.
type Trace struct {
	recs    []Record
	cap     int
	dropped uint64
	wall    bool // spans carry a wall_ns annotation
}

// DefaultTraceCap bounds an observer's in-memory trace events (~1M
// events, a few hundred MB of JSON at most).
const DefaultTraceCap = 1 << 20

// newTrace returns an empty trace with the given event capacity.
func newTrace(capEvents int, wall bool) *Trace {
	return &Trace{cap: capEvents, wall: wall}
}

// add buffers one record, honouring the capacity bound.
func (t *Trace) add(r Record) {
	if len(t.recs) >= t.cap {
		t.dropped++
		return
	}
	t.recs = append(t.recs, r)
}

// Len reports recorded (non-dropped) events.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.recs)
}

// traceJSON is the document schema: the traceEvents array Perfetto
// expects, plus a header naming the virtual clock and the drop count.
type traceJSON struct {
	TraceEvents []event           `json:"traceEvents"`
	OtherData   map[string]string `json:"otherData"`
}

// Write renders the trace as a Chrome trace-event JSON document: one
// thread_name metadata record per track (one timeline row per
// component, numbered in order of first appearance), then every
// record in emission order. Equal traces render equal bytes.
func (t *Trace) Write(w io.Writer) error {
	meta := []event{} // thread_name records, one per track
	tids := map[string]int{}
	tid := func(track string) int {
		if _, ok := tids[track]; !ok {
			tids[track] = len(meta)
			meta = append(meta, event{Name: "thread_name", Ph: "M", Tid: len(meta),
				Args: map[string]interface{}{"name": track}})
		}
		return tids[track]
	}
	events := make([]event, len(t.recs))
	for i, r := range t.recs {
		e := event{Name: r.Name, Ts: uint64(r.Start)}
		switch r.Kind {
		case SpanRecord:
			e.Ph, e.Dur, e.Tid = "X", uint64(r.End-r.Start), tid(r.Track)
			if t.wall {
				e.Args = map[string]interface{}{"wall_ns": float64(r.Wall.Nanoseconds())}
			}
		case RetuneRecord:
			e.Ph, e.S, e.Tid = "i", "t", tid(r.Track)
			e.Args = map[string]interface{}{
				"alpha": r.Fit.Alpha, "beta": r.Fit.Beta,
				"residual": r.Fit.Residual, "drift": r.Fit.Drift,
				"observations": float64(r.Fit.Observations),
			}
		case SampleRecord:
			e.Ph = "C"
			e.Args = map[string]interface{}{"value": r.Value}
		}
		events[i] = e
	}
	doc := traceJSON{
		TraceEvents: append(meta, events...),
		OtherData: map[string]string{
			"clock":   "virtual-cycles (1us = 1 cycle)",
			"dropped": strconv.FormatUint(t.dropped, 10),
		},
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
