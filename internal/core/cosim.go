package core

import (
	"fmt"
	"time"

	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Cosim couples a full-system simulator to a set of reciprocally
// abstracted components — the network backend plus any memory oracles
// the system exposes — with quantum-based reciprocal abstraction.
type Cosim struct {
	// Sys is the coarse-grain full-system simulator.
	Sys *fullsys.System
	// Net is the network backend (detailed, abstract, hybrid, or
	// calibrated).
	Net Backend
	// Quantum is the synchronization interval in cycles (1 = fully
	// synchronous ground truth).
	Quantum int //simlint:derived run-description config, covered by the snapshot config digest

	// WatchdogQuanta aborts Run when no core retires an operation for
	// this many consecutive quanta (0 disables the watchdog). It turns
	// protocol or coupling deadlocks into diagnosable errors instead
	// of silent cycle-limit exhaustion.
	WatchdogQuanta int //simlint:derived host-side abort policy, not simulated state

	// Recipe rebuilds this co-simulation's object graph over a given
	// workload: the constructor calls that built it, recorded by
	// whoever made them (repro.BuildCosim does). Fork runs it over a
	// fresh instance of the workload to get the twin it restores into;
	// without one Fork reports an error.
	Recipe func(fullsys.Workload) (*Cosim, error) //simlint:derived construction input, re-recorded on every twin it builds

	// comps is the component registry: Net first, then one component
	// per memory controller oracle, in deterministic controller order.
	comps    []Component       //simlint:derived rebuilt by New from the system's claimed memory ports
	memPorts []fullsys.MemPort //simlint:derived rebuilt by New from the system's memory ports

	// obsH is the pre-resolved instrumentation state (observe.go); nil
	// is the uninstrumented fast path — one branch per site.
	obsH *obsHandles //simlint:derived observer handles re-resolved per run, never simulated state

	cycle       sim.Cycle
	skewSum     uint64
	skewMax     sim.Cycle
	delivered   uint64
	sysWall     time.Duration //simlint:derived host-cost telemetry, never fed back into simulated state
	netWall     time.Duration //simlint:derived host-cost telemetry, never fed back into simulated state
	lastRetired uint64
	stuckFor    int
	stalled     bool
}

// memComponent adapts one fullsys memory port (a tile's dram.Oracle)
// to the Component contract.
type memComponent struct {
	port fullsys.MemPort
}

// Name implements Component.
func (m memComponent) Name() string {
	return fmt.Sprintf("mem%d-%s", m.port.Tile, m.port.Oracle.Name())
}

// AdvanceTo implements Component.
func (m memComponent) AdvanceTo(c sim.Cycle) { m.port.Oracle.AdvanceTo(c) }

// Close implements Component.
func (m memComponent) Close() { m.port.Oracle.Close() }

// New wires a system and a backend together. The system must have been
// constructed with SenderFor(backend) as its send callback; use Build
// for the common case. New registers the system's memory oracles (if
// its memory model has any) as components advanced at quantum
// boundaries alongside the network.
func New(sys *fullsys.System, backend Backend, quantum int) (*Cosim, error) {
	if quantum < 1 {
		return nil, fmt.Errorf("core: quantum must be >= 1, got %d", quantum)
	}
	c := &Cosim{Sys: sys, Net: backend, Quantum: quantum, WatchdogQuanta: 1 << 20}
	c.memPorts = sys.MemPorts()
	c.comps = append(c.comps, backend)
	for _, p := range c.memPorts {
		c.comps = append(c.comps, memComponent{port: p})
	}
	return c, nil
}

// Close stops the worker pools of every registered component and
// keeps everything else: simulated state and the observer stay, and
// the next Step restarts whatever pools it needs (Component.Close). It
// ends a finished simulation's use of host resources, and it is how a
// holder that will leave a live one idle for a while — cosimd's warm
// tier — stops paying goroutines for it. Bit-identity across a Close
// is the sharded stepper's, which holds for every worker count.
func (c *Cosim) Close() {
	for _, comp := range c.comps {
		comp.Close()
	}
}

// SenderFor returns the fullsys send callback that injects messages
// into the backend as network packets. Under -tags simcheck it also
// enforces the Backend.Inject contract: injections at each source must
// be in nondecreasing time order.
func SenderFor(backend Backend) fullsys.Sender {
	var lastInject []sim.Cycle
	return func(m fullsys.Msg, at sim.Cycle) {
		if sim.Checking {
			for len(lastInject) <= m.Src {
				lastInject = append(lastInject, 0)
			}
			sim.Assert(at >= lastInject[m.Src],
				"source %d injected at %v after injecting at %v: Backend.Inject requires nondecreasing per-source times",
				m.Src, at, lastInject[m.Src])
			lastInject[m.Src] = at
		}
		p := backend.NewPacket()
		p.VNet = m.Type.VNet()
		p.Class = m.Type.Class()
		p.Size = m.Flits()
		pack(p, m)
		backend.Inject(p, at)
	}
}

// pack stores message m in packet p: its endpoints as the packet's,
// the type as Kind (offset by one, so Kind 0 stays "no payload"), the
// line and the value.
func pack(p *noc.Packet, m fullsys.Msg) {
	p.Src, p.Dst = m.Src, m.Dst
	p.Kind, p.Line, p.Value = uint8(m.Type)+1, m.Line, m.Value
}

// unpack rebuilds the message a packet carries.
func unpack(p *noc.Packet) fullsys.Msg {
	return fullsys.Msg{Type: fullsys.MsgType(p.Kind - 1), Line: p.Line, Src: p.Src, Dst: p.Dst, Value: p.Value}
}

// Build constructs the system over the workload and couples it to the
// backend with the given quantum.
func Build(cfg fullsys.Config, wl fullsys.Workload, backend Backend, quantum int) (*Cosim, error) {
	sys, err := fullsys.New(cfg, wl, SenderFor(backend))
	if err != nil {
		return nil, err
	}
	return New(sys, backend, quantum)
}

// Result summarizes one co-simulation run.
type Result struct {
	// Mode names the backend and quantum.
	Mode string
	// Finished reports whether the workload ran to completion.
	Finished bool
	// Stalled reports a watchdog abort: no core retired an operation
	// for WatchdogQuanta consecutive quanta.
	Stalled bool
	// ExecCycles is the target execution time (cycle of last halt, or
	// the cycle limit if not finished).
	ExecCycles sim.Cycle
	// Packets is the number of delivered network packets.
	Packets uint64
	// AvgLatency, AvgNetLatency are mean end-to-end and in-network
	// packet latencies in cycles.
	AvgLatency, AvgNetLatency float64
	// P95Latency is the 95th-percentile end-to-end latency.
	P95Latency float64
	// AvgHops is the mean hop count (0 for abstract backends).
	AvgHops float64
	// AvgSkew and MaxSkew report delivery lateness introduced by the
	// quantum (cycles a delivery waited for the next boundary).
	AvgSkew float64
	MaxSkew sim.Cycle
	// SysWall and NetWall split host time between the two simulators.
	// The clock is read only under an observer with Wall set
	// (obs.Options.Wall); both are zero otherwise.
	SysWall, NetWall time.Duration
	// Retired is the number of retired core operations.
	Retired uint64
}

// Cycle reports the next cycle to simulate.
func (c *Cosim) Cycle() sim.Cycle { return c.cycle }

// advance moves every registered component to the quantum boundary,
// in registry order.
func (c *Cosim) advance(end sim.Cycle) {
	h := c.obsH
	for i, comp := range c.comps {
		if h == nil {
			comp.AdvanceTo(end)
			continue
		}
		// Timed only when the time has somewhere to go, a trace span or
		// a registry histogram: a Wall-only observer wants Step's split
		// and nothing finer.
		timed := h.wall && (h.spans() || h.advWall[i] != nil)
		var t0 time.Time
		if timed {
			t0 = time.Now() //simlint:allow wallclock per-component advance cost annotation, observed only
		}
		comp.AdvanceTo(end)
		var d time.Duration
		if timed {
			d = time.Since(t0) //simlint:allow wallclock per-component advance cost annotation, observed only
		}
		h.span(h.names[i], "advance", h.advWall[i], c.cycle, end, d)
	}
}

// Step advances the co-simulation by one quantum (or less, if the
// workload finishes mid-quantum). It returns false when the workload
// has completed. The host clock is read only when the attached
// observer has Wall set; an unwatched Step pays for no timing.
func (c *Cosim) Step() bool {
	h := c.obsH
	wall := h != nil && h.wall
	end := c.cycle + sim.Cycle(c.Quantum)
	var t0, t1 time.Time
	if wall {
		t0 = time.Now() //simlint:allow wallclock host-time split between the two simulators, never fed back into simulated state
	}
	for t := c.cycle; t < end; t++ {
		c.Sys.Tick(t)
	}
	if wall {
		t1 = time.Now() //simlint:allow wallclock host-time split between the two simulators, never fed back into simulated state
	}
	if h != nil {
		h.span("fullsys", "tick", h.sysWall, c.cycle, end, t1.Sub(t0))
	}
	c.advance(end)
	// Memory completions apply before network deliveries: completions
	// inside the simulated window clamp to end-1 (bounded skew, like
	// network deliveries), and deliveries dispatch at >= end-1, so this
	// order keeps every source's injection stream nondecreasing.
	memDone, netDone := 0, 0
	for _, mp := range c.memPorts {
		for _, done := range mp.Oracle.Drain() {
			if sim.Checking {
				sim.Assert(done.At >= c.cycle,
					"memory oracle %q completed at %v, before the window start %v",
					mp.Oracle.Name(), done.At, c.cycle)
			}
			memDone++
			c.Sys.CompleteMem(mp.Tile, done)
		}
	}
	for _, p := range c.Net.Drain() {
		// Quantum-boundary invariants (compiled in under -tags
		// simcheck): a backend advanced to `end` may only surface
		// deliveries up to the boundary (a tail switched in cycle
		// end-1 reaches the NI at end), and never before the packet
		// existed. Guarded, because a no-op Assert still evaluates its
		// arguments and Name() formats a string.
		if sim.Checking {
			sim.Assert(p.DeliveredAt <= end,
				"backend %q delivered %v at %v, past the quantum boundary %v",
				c.Net.Name(), p, p.DeliveredAt, end)
			sim.Assert(p.DeliveredAt >= p.CreatedAt,
				"backend %q delivered %v at %v before its creation at %v",
				c.Net.Name(), p, p.DeliveredAt, p.CreatedAt)
		}
		now := end - 1
		if p.DeliveredAt < now {
			c.skewSum += uint64(now - p.DeliveredAt)
			if now-p.DeliveredAt > c.skewMax {
				c.skewMax = now - p.DeliveredAt
			}
		}
		if h != nil {
			h.skew.Observe(float64(now - min(p.DeliveredAt, now)))
		}
		netDone++
		c.delivered++
		c.Sys.Deliver(unpack(p), p.DeliveredAt)
		c.Net.Recycle(p)
	}
	if h != nil {
		h.endQuantum(c, end, memDone, netDone)
	}
	if wall {
		c.netWall += time.Since(t1) //simlint:allow wallclock host-time split between the two simulators, never fed back into simulated state
		c.sysWall += t1.Sub(t0)
	}
	c.cycle = end
	return !c.Sys.Done()
}

// Run advances the co-simulation until the workload completes, the
// cycle limit is reached, or the watchdog detects a stall. The summary
// reports Finished=false with Stalled=true on watchdog aborts.
func (c *Cosim) Run(limit sim.Cycle) Result {
	for c.cycle < limit {
		if !c.Step() {
			break
		}
		if c.WatchdogQuanta <= 0 {
			continue
		}
		if r := c.Sys.Retired(); r != c.lastRetired {
			c.lastRetired = r
			c.stuckFor = 0
		} else if c.stuckFor++; c.stuckFor >= c.WatchdogQuanta {
			c.stalled = true
			break
		}
	}
	return c.result(limit)
}

func (c *Cosim) result(limit sim.Cycle) Result {
	tr := c.Net.Tracker()
	r := Result{
		Mode:          fmt.Sprintf("%s/q%d", c.Net.Name(), c.Quantum),
		Finished:      c.Sys.Done(),
		Stalled:       c.stalled,
		ExecCycles:    c.cycle,
		Packets:       tr.Count(),
		AvgLatency:    tr.Mean(),
		AvgNetLatency: tr.MeanNetwork(),
		P95Latency:    tr.Percentile(0.95),
		AvgHops:       tr.MeanHops(),
		MaxSkew:       c.skewMax,
		SysWall:       c.sysWall,
		NetWall:       c.netWall,
		Retired:       c.Sys.Retired(),
	}
	if c.Sys.Done() {
		r.ExecCycles = c.Sys.FinishCycle()
	}
	if c.delivered > 0 {
		r.AvgSkew = float64(c.skewSum) / float64(c.delivered)
	}
	return r
}

// wallCell formats one half of the host-time split; "-" marks a run
// nobody timed (Result.SysWall/NetWall).
func wallCell(d time.Duration) string {
	if d == 0 {
		return "-"
	}
	return d.Round(time.Millisecond).String()
}

// LatencyTable formats a set of results as a comparison table.
func LatencyTable(title string, results []Result) *stats.Table {
	t := stats.NewTable(title,
		"mode", "finished", "exec-cycles", "packets", "avg-lat", "net-lat", "p95", "avg-skew", "sys-wall", "net-wall")
	for _, r := range results {
		t.AddRow(r.Mode, r.Finished, uint64(r.ExecCycles), r.Packets,
			r.AvgLatency, r.AvgNetLatency, r.P95Latency, r.AvgSkew,
			wallCell(r.SysWall), wallCell(r.NetWall))
	}
	return t
}
