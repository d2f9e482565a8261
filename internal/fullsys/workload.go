package fullsys

import "fmt"

// OpKind enumerates the operations a core executes.
type OpKind uint8

// Core operation kinds.
const (
	// OpCompute models Arg cycles of non-memory work.
	OpCompute OpKind = iota
	// OpLoad reads Addr; the loaded line token is reported to
	// Workload.Observe on completion.
	OpLoad
	// OpStore writes line token Arg to Addr through the store buffer.
	OpStore
	// OpAtomic performs a fetch-and-add of Arg on Addr's line token
	// with full fence semantics (store buffer drained first).
	OpAtomic
	// OpBarrier synchronizes all cores on barrier id Arg (fence).
	OpBarrier
	// OpHalt retires the core after draining its store buffer.
	OpHalt
)

func (k OpKind) String() string {
	switch k {
	case OpCompute:
		return "compute"
	case OpLoad:
		return "load"
	case OpStore:
		return "store"
	case OpAtomic:
		return "atomic"
	case OpBarrier:
		return "barrier"
	case OpHalt:
		return "halt"
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Op is one core operation.
type Op struct {
	Kind OpKind
	Addr uint64
	// Arg is cycles for OpCompute, the stored token for OpStore, the
	// addend for OpAtomic, and the barrier id for OpBarrier.
	Arg uint64
}

// Workload supplies each core's operation stream and observes loaded
// values (so tests and statistical kernels can react to data).
type Workload interface {
	// Next returns the core's next operation. After OpHalt it must
	// keep returning OpHalt.
	Next(core int) Op
	// Observe reports the line token returned by a completed OpLoad
	// or the post-add token of a completed OpAtomic.
	Observe(core int, addr, value uint64)
}

// Script is a fixed per-core operation list, used by protocol tests
// and the examples. The zero value is an empty (immediately halting)
// workload.
type Script struct {
	Ops [][]Op //simlint:derived construction input; restore validates positions against the same lists

	pos      []int
	observed [][]uint64
}

// NewScript returns a scripted workload over per-core op lists.
func NewScript(ops [][]Op) *Script {
	return &Script{
		Ops:      ops,
		pos:      make([]int, len(ops)),
		observed: make([][]uint64, len(ops)),
	}
}

// Fresh returns an unstarted script over the same op lists (what
// core.Cosim.Fork builds its twin over).
func (s *Script) Fresh() Workload { return NewScript(s.Ops) }

// Next implements Workload.
func (s *Script) Next(core int) Op {
	if core >= len(s.Ops) || s.pos[core] >= len(s.Ops[core]) {
		return Op{Kind: OpHalt}
	}
	op := s.Ops[core][s.pos[core]]
	s.pos[core]++
	return op
}

// Observe implements Workload, recording values per core.
func (s *Script) Observe(core int, addr, value uint64) {
	s.observed[core] = append(s.observed[core], value)
}

// Observed reports the values loaded by a core, in program order.
func (s *Script) Observed(core int) []uint64 { return s.observed[core] }
