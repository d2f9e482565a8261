//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"

	"repro/internal/calib"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/sim"
)

// span is one timed interval at a layer boundary. Parent is the index
// of the span that caused it (-1 for a root); spans of one repetition
// share Run.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
	Parent  int    `json:"parent"`
	Run     int    `json:"run"`
	// Calls and BusyNs are set on aggregate spans, which cover many
	// calls too short to record one by one.
	Calls  int   `json:"calls,omitempty"`
	BusyNs int64 `json:"busy_ns,omitempty"`
}

// tracer keeps spans in memory and writes them when the harness exits.
// A nil *tracer is the untraced run: every method returns at once.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	run   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return time.Since(t.epoch).Nanoseconds() }

// begin opens a span and returns its index, which closes it and names
// it as a parent.
func (t *tracer) begin(name, layer string, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Layer: layer, StartNs: t.now(), Parent: parent, Run: t.run})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.mu.Lock()
	t.spans[id].EndNs = t.now()
	t.mu.Unlock()
}

// aggregate records one span standing for many short calls.
func (t *tracer) aggregate(name, layer string, parent int, start, end time.Time, calls int, busy time.Duration) {
	if t == nil || calls == 0 {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{
		Name: name, Layer: layer, Parent: parent, Run: t.run,
		StartNs: start.Sub(t.epoch).Nanoseconds(), EndNs: end.Sub(t.epoch).Nanoseconds(),
		Calls: calls, BusyNs: busy.Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) nextRun() {
	if t != nil {
		t.mu.Lock()
		t.run++
		t.mu.Unlock()
	}
}

// writeChrome writes the spans in Chrome trace-event form (load it in
// Perfetto or chrome://tracing): one complete event per span, one
// track per layer, the harness fields under args.
func (t *tracer) writeChrome(path string) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	tids := map[string]int{}
	var events []any
	t.mu.Lock()
	for i, s := range t.spans {
		tid, ok := tids[s.Layer]
		if !ok {
			tid = len(tids) + 1
			tids[s.Layer] = tid
			events = append(events, map[string]any{
				"name": "thread_name", "ph": "M", "pid": 1, "tid": tid,
				"args": map[string]any{"name": s.Layer},
			})
		}
		args := map[string]any{"id": i, "parent": s.Parent, "run": s.Run}
		if s.Calls > 0 {
			args["calls"] = s.Calls
			args["busy_ns"] = s.BusyNs
		}
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts: float64(s.StartNs) / 1e3, Dur: float64(s.EndNs-s.StartNs) / 1e3,
			Pid: 1, Tid: tid, Args: args,
		})
	}
	t.mu.Unlock()
	blob, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o666)
}

// callTimer accumulates the host time of one kind of call and hands the
// tracer an aggregate span every aggregateEvery calls, so a per-cycle
// call site costs two clock reads and no allocation.
type callTimer struct {
	name, layer string
	tr          *tracer
	parent      int

	total time.Duration
	calls int

	batchStart time.Time
	batchEnd   time.Time
	batchBusy  time.Duration
	batchCalls int
}

const aggregateEvery = 1024

func (c *callTimer) add(start, end time.Time) {
	d := end.Sub(start)
	c.total += d
	c.calls++
	if c.batchCalls == 0 {
		c.batchStart = start
	}
	c.batchEnd = end
	c.batchBusy += d
	c.batchCalls++
	if c.batchCalls == aggregateEvery {
		c.flush()
	}
}

func (c *callTimer) flush() {
	c.tr.aggregate(c.name, c.layer, c.parent, c.batchStart, c.batchEnd, c.batchCalls, c.batchBusy)
	c.batchCalls, c.batchBusy = 0, 0
}

// tracedBackend times the three calls the coordinator makes into a
// network backend. Everything else is the wrapped backend's own, so the
// simulated outcome is the untraced one (the harness compares
// fingerprints to prove it).
type tracedBackend struct {
	core.Backend
	inject, advance, drain callTimer
}

func newTracedBackend(inner core.Backend, tr *tracer, layer string, parent int) *tracedBackend {
	return &tracedBackend{
		Backend: inner,
		inject:  callTimer{name: "inject", layer: layer, tr: tr, parent: parent},
		advance: callTimer{name: "advance", layer: layer, tr: tr, parent: parent},
		drain:   callTimer{name: "drain", layer: layer, tr: tr, parent: parent},
	}
}

func (t *tracedBackend) Inject(p *noc.Packet, at sim.Cycle) {
	t0 := time.Now()
	t.Backend.Inject(p, at)
	t.inject.add(t0, time.Now())
}

func (t *tracedBackend) AdvanceTo(c sim.Cycle) {
	t0 := time.Now()
	t.Backend.AdvanceTo(c)
	t.advance.add(t0, time.Now())
}

func (t *tracedBackend) Drain() []*noc.Packet {
	t0 := time.Now()
	out := t.Backend.Drain()
	t.drain.add(t0, time.Now())
	return out
}

// SetRetuneSink forwards the observer's retune sink to backends that
// have a reciprocal pairing; core.SetObserver finds it by interface.
func (t *tracedBackend) SetRetuneSink(s calib.RetuneSink) {
	if ro, ok := t.Backend.(core.RetuneObservable); ok {
		ro.SetRetuneSink(s)
	}
}

func (t *tracedBackend) flush() {
	t.inject.flush()
	t.advance.flush()
	t.drain.flush()
}

func (t *tracedBackend) busy() time.Duration {
	return t.inject.total + t.advance.total + t.drain.total
}

// packetPooler is the free-list surface the coordinator looks for on a
// backend. A backend that retains packets past delivery does not have
// it, so the traced wrapper must not invent it.
type packetPooler interface {
	NewPacket() *noc.Packet
	Recycle(p *noc.Packet)
}

// tracedPooled is tracedBackend over a backend with a packet free list:
// the two calls are forwarded so pooling behaves as in the untraced run.
type tracedPooled struct {
	*tracedBackend
	pool packetPooler
}

func (t tracedPooled) NewPacket() *noc.Packet { return t.pool.NewPacket() }
func (t tracedPooled) Recycle(p *noc.Packet)  { t.pool.Recycle(p) }

// wrapBackend returns the coordinator-facing traced backend and the
// timers behind it.
func wrapBackend(inner core.Backend, tr *tracer, layer string, parent int) (core.Backend, *tracedBackend) {
	tb := newTracedBackend(inner, tr, layer, parent)
	if pool, ok := inner.(packetPooler); ok {
		return tracedPooled{tb, pool}, tb
	}
	return tb, tb
}
