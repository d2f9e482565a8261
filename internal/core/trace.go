package core

import (
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TraceEntry records one network injection for later open-loop replay
// — the "component evaluated in a vacuum" methodology the paper argues
// against: the trace's timing is frozen at capture and cannot react to
// the network being evaluated.
type TraceEntry struct {
	At    sim.Cycle
	Src   int
	Dst   int
	VNet  int
	Size  int
	Class stats.LatencyClass
}

// Recorder wraps a backend and records every injection. It pools
// packets through the wrapped backend's free list: the trace holds
// TraceEntry values, never the packets themselves.
type Recorder struct {
	Backend
	Trace []TraceEntry
}

// NewRecorder wraps a backend for trace capture.
func NewRecorder(b Backend) *Recorder { return &Recorder{Backend: b} }

// Inject records the injection and forwards it.
func (r *Recorder) Inject(p *noc.Packet, at sim.Cycle) {
	r.Trace = append(r.Trace, TraceEntry{
		At: at, Src: p.Src, Dst: p.Dst, VNet: p.VNet, Size: p.Size, Class: p.Class,
	})
	r.Backend.Inject(p, at)
}

// Replay drives a detailed network open-loop with a captured trace:
// injections happen at their recorded cycles regardless of how the
// network responds (no feedback). It runs through the last injection
// plus drainLimit cycles or until quiescent, and returns the
// network's latency tracker.
func Replay(trace []TraceEntry, net *noc.Network, drainLimit int) *stats.LatencyTracker {
	for _, e := range trace {
		net.Inject(&noc.Packet{
			Src: e.Src, Dst: e.Dst, VNet: e.VNet, Size: e.Size, Class: e.Class,
		}, e.At)
	}
	var last sim.Cycle
	if len(trace) > 0 {
		last = trace[len(trace)-1].At
	}
	for net.Cycle() <= last {
		net.Step()
		net.Drain()
	}
	for i := 0; i < drainLimit && !net.Quiescent(); i++ {
		net.Step()
		net.Drain()
	}
	return net.Tracker()
}
