package core

import (
	"fmt"

	"repro/internal/fullsys"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Fork, RestoreFork and ForkInto are compositions over the one state
// description (Cosim.state; DESIGN.md "State capture"):
// construct a twin with the constructors that built the original,
// seal the source into an in-memory envelope, open it into the twin
// with every check a checkpoint file gets (magic, version, digest,
// CRC, sections, no trailing bytes). Nothing here knows what the state
// is.

// restartable is what forking needs of a workload: an unstarted
// instance of the same kernel for the twin's system to be built over.
// Its position is then overwritten by the decode.
type restartable interface {
	Fresh() fullsys.Workload
}

func freshWorkload(sys *fullsys.System) (fullsys.Workload, error) {
	r, ok := sys.Workload().(restartable)
	if !ok {
		return nil, fmt.Errorf("core: workload %T cannot supply a fresh instance to fork onto", sys.Workload())
	}
	return r.Fresh(), nil
}

// forkDigest seals the in-memory envelopes; both ends are this file.
const forkDigest = 0

// Fork returns an independent live copy of the co-simulation: a twin
// built by re-running Recipe over a fresh instance of the workload,
// then RestoreFork. Parent and fork share nothing, advance
// independently (concurrently if wanted) and produce bit-identical
// results versus uninterrupted runs; a fork encodes to the parent's
// bytes. Fork must not run concurrently with Step on the same
// simulation (the same rule as encoding a checkpoint).
func (c *Cosim) Fork() (*Cosim, error) {
	if c.Recipe == nil {
		return nil, fmt.Errorf("core: co-simulation records no build recipe to fork with (repro.BuildCosim sets one)")
	}
	wl, err := freshWorkload(c.Sys)
	if err != nil {
		return nil, err
	}
	f, err := c.Recipe(wl)
	if err != nil {
		return nil, err
	}
	f.WatchdogQuanta = c.WatchdogQuanta
	if err := f.RestoreFork(c); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// Release ends a fork's use of host resources; it is Close.
func (c *Cosim) Release() { c.Close() }

// RestoreFork copies src's state into c, which must have been built
// like src (normally by Fork, or by the same constructor calls). src
// is left intact for repeated restores.
func (c *Cosim) RestoreFork(src *Cosim) error {
	blob, err := snapshot.Seal(forkDigest, src.State)
	if err != nil {
		return err
	}
	return snapshot.Open(blob, forkDigest, c.State)
}

// ForkInto transplants a copy of the system state onto a freshly
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
	wl, err := freshWorkload(c.Sys)
	if err != nil {
		return nil, err
	}
	f, err := Build(c.Sys.Cfg(), wl, backend, quantum)
	if err != nil {
		return nil, err
	}
	f.WatchdogQuanta = c.WatchdogQuanta
	blob, err := snapshot.Seal(forkDigest, func(sc *snapshot.Codec) error { return c.state(sc, false) })
	if err != nil {
		return nil, err
	}
	if err := snapshot.Open(blob, forkDigest, func(sc *snapshot.Codec) error { return f.state(sc, false) }); err != nil {
		return nil, err
	}
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
