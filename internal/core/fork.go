package core

import (
	"fmt"
	"sync"

	"repro/internal/abstractnet"
	"repro/internal/noc"
	"repro/internal/sim"
)

// In-memory forking (second tier of the state capture contract; see
// DESIGN.md "Two-tier state capture"). Fork builds a live deep clone
// of the whole co-simulation in microseconds — no serialize
// round-trip — sharing immutable tables (topology, config, codecs)
// with the parent. The versioned snapshot envelope remains the
// on-disk interchange format; a fork re-encodes to byte-identical
// envelope bytes.

// BackendForker is implemented by network backends that support
// in-memory forking. It is the fork-tier sibling of BackendStater.
// The fork result and source are typed any so backends outside this
// package (the GPU offload backend) can implement the contract
// structurally, exactly as BackendStater is satisfied through the
// leaf snapshot package; both values are always the implementing
// backend's own concrete type, and the coordinator asserts Backend.
//
// One remap threads through an entire backend fork so a packet cloned
// at one site (a router buffer) and referenced at another (a
// calibration-pair key) stays a single object in the clone.
type BackendForker interface {
	ForkBackend(remap noc.PacketRemap) (any, error)
	RestoreForkBackend(src any, remap noc.PacketRemap) error
}

// ForkBackend implements BackendForker for the cycle-level adapter.
// The forked network is sharded like its parent but starts its own
// worker pool, and only when it first steps (see noc.Network.Fork).
func (d *Detailed) ForkBackend(remap noc.PacketRemap) (any, error) {
	switch net := d.Net.(type) {
	case *noc.Network:
		nf, err := net.Fork(remap)
		if err != nil {
			return nil, err
		}
		return NewDetailed(nf), nil
	case *noc.Deflection:
		nf, err := net.Fork(remap)
		if err != nil {
			return nil, err
		}
		return NewDetailed(nf), nil
	default:
		return nil, fmt.Errorf("core: cycle-level network %T does not support forking", d.Net)
	}
}

// RestoreForkBackend implements BackendForker for the cycle-level
// adapter, copying the fork's network state into d's own network in
// place.
func (d *Detailed) RestoreForkBackend(src any, remap noc.PacketRemap) error {
	sf, ok := src.(*Detailed)
	if !ok {
		return fmt.Errorf("core: cannot restore %T into a cycle-level backend", src)
	}
	switch net := d.Net.(type) {
	case *noc.Network:
		fn, ok := sf.Net.(*noc.Network)
		if !ok {
			return fmt.Errorf("core: cannot restore %T into %T", sf.Net, d.Net)
		}
		net.RestoreFork(fn, remap)
	case *noc.Deflection:
		fn, ok := sf.Net.(*noc.Deflection)
		if !ok {
			return fmt.Errorf("core: cannot restore %T into %T", sf.Net, d.Net)
		}
		net.RestoreFork(fn, remap)
	default:
		return fmt.Errorf("core: cycle-level network %T does not support forking", d.Net)
	}
	return nil
}

// ForkBackend implements BackendForker for the analytical adapter.
func (a *Abstract) ForkBackend(remap noc.PacketRemap) (any, error) {
	return NewAbstract(a.Net.Fork(remap)), nil
}

// RestoreForkBackend implements BackendForker for the analytical
// adapter.
func (a *Abstract) RestoreForkBackend(src any, remap noc.PacketRemap) error {
	sf, ok := src.(*Abstract)
	if !ok {
		return fmt.Errorf("core: cannot restore %T into an analytical backend", src)
	}
	a.Net.RestoreFork(sf.Net, remap)
	return nil
}

// ForkBackend implements BackendForker for the sampling backend. The
// forked abstract network carries a forked tuned model with a fresh
// fit; the calibration pairing is re-aliased onto that fit so the
// clone keeps the parent's fit-sharing topology. Prediction keys are
// packets living in the detailed network, remapped through the same
// remap that cloned them there.
func (h *Hybrid) ForkBackend(remap noc.PacketRemap) (any, error) {
	bf, ok := h.detailed.(BackendForker)
	if !ok {
		return nil, fmt.Errorf("core: hybrid detailed backend %q does not support forking", h.detailed.Name())
	}
	df, err := bf.ForkBackend(remap)
	if err != nil {
		return nil, err
	}
	abs := h.abstract.Fork(remap)
	tuned := abs.Model().(*abstractnet.Tuned)
	return &Hybrid{
		detailed:  df.(Backend),
		abstract:  abs,
		tuned:     tuned,
		Period:    h.Period,
		SampleLen: h.SampleLen,
		pair:      h.pair.ForkWith(tuned.Fit(), remap.Clone),
		tracker:   h.tracker.Fork(),
	}, nil
}

// RestoreForkBackend implements BackendForker for the sampling
// backend. h keeps its own tuned model and fit objects (state is
// restored into them), so the system's wiring stays valid.
func (h *Hybrid) RestoreForkBackend(src any, remap noc.PacketRemap) error {
	sf, ok := src.(*Hybrid)
	if !ok {
		return fmt.Errorf("core: cannot restore %T into a hybrid backend", src)
	}
	bf, ok := h.detailed.(BackendForker)
	if !ok {
		return fmt.Errorf("core: hybrid detailed backend %q does not support forking", h.detailed.Name())
	}
	if err := bf.RestoreForkBackend(sf.detailed, remap); err != nil {
		return err
	}
	h.abstract.RestoreFork(sf.abstract, remap)
	h.pair.RestoreForkWith(sf.pair, remap.Clone)
	h.tracker.RestoreFork(sf.tracker)
	h.drainBuf = h.drainBuf[:0]
	return nil
}

// ForkBackend implements BackendForker for the calibrated backend.
// The timing network's forked tuned model supplies the fresh fit; the
// pairing's prediction keys are shadow packets living in the detailed
// network, remapped through the shared remap.
func (c *Calibrated) ForkBackend(remap noc.PacketRemap) (any, error) {
	bf, ok := c.detailed.(BackendForker)
	if !ok {
		return nil, fmt.Errorf("core: calibrated detailed backend %q does not support forking", c.detailed.Name())
	}
	df, err := bf.ForkBackend(remap)
	if err != nil {
		return nil, err
	}
	timing := c.timing.Fork(remap)
	fit := timing.Model().(*abstractnet.Tuned).Fit()
	f := newCalibrated(df.(Backend), timing, c.RetunePeriod, c.pair.ForkWith(fit, remap.Clone))
	f.shadowed = c.shadowed
	return f, nil
}

// RestoreForkBackend implements BackendForker for the calibrated
// backend.
func (c *Calibrated) RestoreForkBackend(src any, remap noc.PacketRemap) error {
	sf, ok := src.(*Calibrated)
	if !ok {
		return fmt.Errorf("core: cannot restore %T into a calibrated backend", src)
	}
	bf, ok := c.detailed.(BackendForker)
	if !ok {
		return fmt.Errorf("core: calibrated detailed backend %q does not support forking", c.detailed.Name())
	}
	if err := bf.RestoreForkBackend(sf.detailed, remap); err != nil {
		return err
	}
	c.timing.RestoreFork(sf.timing, remap)
	c.pair.RestoreForkWith(sf.pair, remap.Clone)
	c.shadowed = sf.shadowed
	return nil
}

// forkPool caches released fork shells of one co-simulation family so
// fork churn (cosimd eviction parking, rollback save/replay) skips
// twin construction: Fork reuses a pooled shell via RestoreFork — the
// microseconds path — and only the family's first fork pays for
// building the object graph. The pool is shared by pointer across the
// whole family and drained by any member's Close.
type forkPool struct {
	mu     sync.Mutex
	shells []*Cosim
}

// forkPoolCap bounds how many idle shells a family keeps; beyond it,
// Release falls back to Close.
const forkPoolCap = 8

func (p *forkPool) get() *Cosim {
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.shells); n > 0 {
		s := p.shells[n-1]
		p.shells[n-1] = nil
		p.shells = p.shells[:n-1]
		return s
	}
	return nil
}

func (p *forkPool) put(s *Cosim) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.shells) >= forkPoolCap {
		return false
	}
	p.shells = append(p.shells, s)
	return true
}

func (p *forkPool) len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.shells)
}

func (p *forkPool) drain() {
	p.mu.Lock()
	shells := p.shells
	p.shells = nil
	p.mu.Unlock()
	for _, s := range shells {
		s.Close()
	}
}

// Fork returns an independent live deep clone of the co-simulation.
// Parent and fork advance independently and produce bit-identical
// results versus uninterrupted runs; a fork's SnapshotTo produces
// byte-identical envelopes to the parent's. The clone shares
// immutable tables (topology, routing closures, configuration) with
// the parent and runs a sequential component stepper — set
// f.Stepper after forking to parallelize it.
//
// Forks released with Release are cached in a family-wide shell pool
// and reused by later Forks, so steady-state fork churn costs one
// RestoreFork, not a construction. Fork must not run concurrently
// with Step on the same simulation (the same rule as SnapshotTo);
// once forked, parent and clone may advance concurrently.
func (c *Cosim) Fork() (*Cosim, error) {
	bf, ok := c.Net.(BackendForker)
	if !ok {
		return nil, fmt.Errorf("core: backend %q does not support forking", c.Net.Name())
	}
	if c.pool == nil {
		c.pool = &forkPool{}
	}
	if shell := c.pool.get(); shell != nil {
		if err := shell.RestoreFork(c); err != nil {
			shell.Close()
			return nil, err
		}
		return shell, nil
	}
	remap := noc.NewPacketRemap()
	nb, err := bf.ForkBackend(remap)
	if err != nil {
		return nil, err
	}
	netFork := nb.(Backend)
	sys, err := c.Sys.Fork(SenderFor(netFork))
	if err != nil {
		return nil, err
	}
	f, err := New(sys, netFork, c.Quantum)
	if err != nil {
		return nil, err
	}
	f.WatchdogQuanta = c.WatchdogQuanta
	f.pool = c.pool
	f.copyStateFrom(c)
	return f, nil
}

// PooledShells reports how many idle fork shells this simulation's
// family pool currently holds (0 when the simulation was never
// forked). Observability only; the value is stale the moment it is
// read.
func (c *Cosim) PooledShells() int {
	if c == nil || c.pool == nil {
		return 0
	}
	return c.pool.len()
}

// Release returns this simulation's shell to the family fork pool for
// reuse by the next Fork. Use it instead of Close for fork churn; the
// shell keeps its backend and oracle objects alive until a family
// member's Close drains the pool. When the pool is full — or the
// simulation was never part of a fork family — Release closes
// instead.
func (c *Cosim) Release() {
	if c.pool != nil && c.pool.put(c) {
		return
	}
	// Detach before closing so discarding one surplus shell does not
	// drain the family's pool.
	c.pool = nil
	c.Close()
}

// RestoreFork copies f's state into c in place: c keeps its own
// backend, system, oracle, and fit objects, so all coordinator wiring
// (memory ports, senders, observers) stays valid. f is left intact
// for repeated restores.
func (c *Cosim) RestoreFork(f *Cosim) error {
	bf, ok := c.Net.(BackendForker)
	if !ok {
		return fmt.Errorf("core: backend %q does not support forking", c.Net.Name())
	}
	remap := noc.NewPacketRemap()
	if err := bf.RestoreForkBackend(f.Net, remap); err != nil {
		return err
	}
	c.Sys.RestoreFork(f.Sys)
	if sim.Checking {
		// The send closure carries the simcheck inject-order history;
		// a restore rewinds simulated time, so install a fresh one.
		c.Sys.SetSender(SenderFor(c.Net))
	}
	c.copyStateFrom(f)
	return nil
}

// copyStateFrom copies src's persistent coordinator counters into c.
// Host wall-time telemetry restarts at zero, exactly as on a snapshot
// restore.
func (c *Cosim) copyStateFrom(src *Cosim) {
	c.cycle = src.cycle
	c.skewSum = src.skewSum
	c.skewMax = src.skewMax
	c.delivered = src.delivered
	c.lastRetired = src.lastRetired
	c.stuckFor = src.stuckFor
	c.stalled = src.stalled
}

// SaveRollback captures the current state as the in-memory rollback
// point, replacing any previous one. The point is a private fork:
// microseconds to take, no serialization.
func (c *Cosim) SaveRollback() error {
	f, err := c.Fork()
	if err != nil {
		return err
	}
	if c.rollback != nil {
		c.rollback.Release()
	}
	c.rollback = f
	return nil
}

// Rollback restores the state captured by the last SaveRollback. The
// rollback point stays valid, so a quantum can be replayed any number
// of times.
func (c *Cosim) Rollback() error {
	if c.rollback == nil {
		return fmt.Errorf("core: no rollback point saved")
	}
	return c.RestoreFork(c.rollback)
}

// RollbackPoint reports the cycle of the saved rollback point and
// whether one is saved.
func (c *Cosim) RollbackPoint() (sim.Cycle, bool) {
	if c.rollback == nil {
		return 0, false
	}
	return c.rollback.cycle, true
}

// ForkInto transplants a fork of the system state onto a freshly
// built backend with its own quantum — the warm-fork sweep primitive:
// warm one simulation up, then fork the warmed system across N
// network configurations instead of repeating N identical warmups.
// The network must be quiescent (no packets in flight), which
// RunToQuiescence arranges; state that lives in the network cannot be
// transplanted across differently-structured backends.
func (c *Cosim) ForkInto(backend Backend, quantum int) (*Cosim, error) {
	if n := c.Net.InFlight(); n != 0 {
		return nil, fmt.Errorf("core: ForkInto requires a quiescent network, %d packets in flight", n)
	}
	sys, err := c.Sys.Fork(SenderFor(backend))
	if err != nil {
		return nil, err
	}
	f, err := New(sys, backend, quantum)
	if err != nil {
		return nil, err
	}
	f.WatchdogQuanta = c.WatchdogQuanta
	f.copyStateFrom(c)
	return f, nil
}

// RunToQuiescence steps until the simulation has reached at least the
// after cycle and the network has drained, stepping no further than
// limit. It reports whether the network is quiescent.
func (c *Cosim) RunToQuiescence(after, limit sim.Cycle) bool {
	for c.cycle < after && c.cycle < limit {
		c.Step()
	}
	for c.Net.InFlight() != 0 && c.cycle < limit {
		c.Step()
	}
	return c.Net.InFlight() == 0
}
