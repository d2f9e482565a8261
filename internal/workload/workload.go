// Package workload provides the statistical multithreaded workloads
// that stand in for SPLASH-2/PARSEC in this reproduction (the paper's
// benchmarks are not available; see DESIGN.md). Each kernel is a
// deterministic per-core operation stream with a distinct spatial and
// sharing signature — transpose-heavy all-to-all, nearest-neighbour
// stencil, hotspot reduction, migratory locking, and so on — chosen so
// that the abstract network model's error varies across workloads the
// way it does across real applications.
//
// Crucially, the operation streams do not depend on loaded values or
// on timing, so the same workload drives every network abstraction
// with an identical instruction sequence: the accuracy experiments
// compare abstractions, not workload noise.
package workload

import (
	"fmt"

	"repro/internal/fullsys"
	"repro/internal/sim"
)

// Address-space layout, in cache lines. Regions are disjoint.
const (
	sharedBase  = 0       // globally shared pool
	ownedBase   = 1 << 16 // per-core "owned" regions other cores may touch
	ownedLines  = 256     // lines per owned region
	privateBase = 1 << 24 // per-core private regions
	hotBase     = 1 << 30 // contended synchronization/reduction lines
)

func lineAddr(line uint64) uint64 { return line << fullsys.LineShift }

// AddrFn picks the line for one memory operation.
type AddrFn func(s *Synthetic, core int, rng *sim.RNG) uint64

// Synthetic is a configurable statistical workload implementing
// fullsys.Workload. Construct via a kernel constructor or ByName.
type Synthetic struct {
	// Name labels the kernel in tables.
	Name string
	// Cores is the number of participating cores.
	Cores int
	// OpsPerCore is the memory-operation budget per core per run.
	OpsPerCore int
	// ComputeMean is the mean compute gap between memory operations
	// (geometric distribution); 0 means back-to-back memory ops.
	ComputeMean float64 //simlint:derived run-description config, covered by the snapshot config digest
	// LoadFrac, StoreFrac, AtomicFrac split memory operations; they
	// must sum to at most 1 (the remainder becomes extra compute).
	LoadFrac, StoreFrac, AtomicFrac float64 //simlint:derived run-description config, covered by the snapshot config digest
	// Addr picks operand lines.
	Addr AddrFn //simlint:derived construction input; function values are part of the kernel definition
	// BarrierEvery inserts a global barrier every N memory ops per
	// core (0 disables phase barriers).
	BarrierEvery int //simlint:derived run-description config, covered by the snapshot config digest
	// PrivateLines sizes each core's private working set.
	PrivateLines int //simlint:derived run-description config, covered by the snapshot config digest
	// SharedLines sizes the global shared pool.
	SharedLines int //simlint:derived run-description config, covered by the snapshot config digest
	// HotLines sizes the contended hotspot set.
	HotLines int //simlint:derived run-description config, covered by the snapshot config digest
	// Seed keys the per-core streams.
	Seed uint64

	rngs    []*sim.RNG
	done    []int // memory ops issued per core
	phase   []int
	nextBar []uint64
	state   []uint8 // 0 running, 1 final barrier sent, 2 halted
}

// kernel state machine constants.
const (
	wRunning uint8 = iota
	wFinalBarrier
	wHalted
)

func (s *Synthetic) init() {
	if s.rngs != nil {
		return
	}
	if s.Cores < 1 || s.OpsPerCore < 1 {
		panic(fmt.Sprintf("workload %s: invalid cores=%d ops=%d", s.Name, s.Cores, s.OpsPerCore))
	}
	s.rngs = make([]*sim.RNG, s.Cores)
	s.done = make([]int, s.Cores)
	s.phase = make([]int, s.Cores)
	s.nextBar = make([]uint64, s.Cores)
	s.state = make([]uint8, s.Cores)
	for c := range s.rngs {
		s.rngs[c] = sim.NewRNG(s.Seed, uint64(c)*977+13)
	}
}

// Fresh returns an unstarted kernel with the same configuration (what
// core.Cosim.Fork builds its twin over).
func (s *Synthetic) Fresh() fullsys.Workload {
	f := *s
	f.rngs, f.done, f.phase, f.nextBar, f.state = nil, nil, nil, nil, nil
	return &f
}

// Next implements fullsys.Workload.
func (s *Synthetic) Next(core int) fullsys.Op {
	s.init()
	switch s.state[core] {
	case wFinalBarrier:
		s.state[core] = wHalted
		fallthrough
	case wHalted:
		return fullsys.Op{Kind: fullsys.OpHalt}
	}
	if s.done[core] >= s.OpsPerCore {
		s.state[core] = wFinalBarrier
		return fullsys.Op{Kind: fullsys.OpBarrier, Arg: 1 << 62}
	}
	rng := s.rngs[core]
	if s.BarrierEvery > 0 && s.done[core] > 0 &&
		s.done[core]%s.BarrierEvery == 0 && uint64(s.done[core]) != s.nextBar[core] {
		s.nextBar[core] = uint64(s.done[core])
		s.phase[core]++
		return fullsys.Op{Kind: fullsys.OpBarrier, Arg: uint64(s.phase[core])}
	}
	if s.ComputeMean > 0 && rng.Bernoulli(s.ComputeMean/(1+s.ComputeMean)) {
		return fullsys.Op{Kind: fullsys.OpCompute, Arg: uint64(rng.Geometric(1 / (1 + s.ComputeMean)))}
	}
	r := rng.Float64()
	if r >= s.LoadFrac+s.StoreFrac+s.AtomicFrac {
		// Residual probability mass is extra compute; it must not
		// consume the memory-op budget.
		return fullsys.Op{Kind: fullsys.OpCompute, Arg: uint64(1 + rng.Intn(4))}
	}
	s.done[core]++
	switch {
	case r < s.LoadFrac:
		return fullsys.Op{Kind: fullsys.OpLoad, Addr: lineAddr(s.Addr(s, core, rng))}
	case r < s.LoadFrac+s.StoreFrac:
		line := s.Addr(s, core, rng)
		return fullsys.Op{Kind: fullsys.OpStore, Addr: lineAddr(line), Arg: rng.Uint64()}
	default:
		hot := hotBase + uint64(rng.Intn(max(1, s.HotLines)))
		return fullsys.Op{Kind: fullsys.OpAtomic, Addr: lineAddr(hot), Arg: 1}
	}
}

// Observe implements fullsys.Workload; statistical kernels do not
// branch on data.
func (s *Synthetic) Observe(core int, addr, value uint64) {}

// Phase reports a core's current barrier phase (used by phase-aware
// address functions).
func (s *Synthetic) Phase(core int) int { return s.phase[core] }

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// privateLine picks within the core's private region with an 80/20
// hot-subset bias (temporal locality).
func privateLine(s *Synthetic, core int, rng *sim.RNG) uint64 {
	n := s.PrivateLines
	base := privateBase + uint64(core)*uint64(n)
	if rng.Bernoulli(0.8) {
		return base + uint64(rng.Intn(max(1, n/8)))
	}
	return base + uint64(rng.Intn(n))
}

// ownedLine picks within owner's owned region.
func ownedLine(owner int, rng *sim.RNG) uint64 {
	return ownedBase + uint64(owner)*ownedLines + uint64(rng.Intn(ownedLines))
}
