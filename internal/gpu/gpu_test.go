package gpu

import (
	"math"
	"testing"

	"repro/internal/noc"
	"repro/internal/noc/topology"
)

func netOver(t *testing.T, side int) *noc.Network {
	t.Helper()
	return netOverCfg(t, side, noc.DefaultConfig())
}

func netOverCfg(t *testing.T, side int, cfg noc.Config) *noc.Network {
	t.Helper()
	m := topology.NewMesh(side, side, 1)
	net, err := noc.New(cfg, m, topology.NewXY(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return net
}

// cost prices net's run so far, advanced in the given number of quanta,
// on the default device.
func cost(net *noc.Network, quanta uint64) Stats {
	return DefaultDevice().Cost(net.ActivityStats(), quanta, net.Injected(), net.Delivered())
}

func TestWaves(t *testing.T) {
	d := DefaultDevice()
	lanes := d.SMs * d.LanesPerSM
	if d.Waves(1) != 1 || d.Waves(lanes) != 1 || d.Waves(lanes+1) != 2 {
		t.Errorf("wave arithmetic wrong around %d lanes", lanes)
	}
	zero := Device{}
	if zero.Waves(7) != 7 {
		t.Error("degenerate device should serialize")
	}
	for waves := 1; waves <= 2; waves++ {
		routers := lanes + waves - 1 // one full wave, then one more router
		st := d.Cost(noc.ActivityStats{Stepped: 1, Routers: routers}, 1, 0, 0)
		if want := float64(waves*d.Phases) * d.PhaseCostNs; st.ComputeNs != want {
			t.Errorf("compute for %d routers = %v, want %d waves' worth", routers, st.ComputeNs, waves)
		}
	}
}

func TestAdvanceAccountsKernels(t *testing.T) {
	// With the exhaustive sweep forced, every cycle in the window
	// launches one kernel per phase — the pre-gating accounting.
	cfg := noc.DefaultConfig()
	cfg.DisableGating = true
	net := netOverCfg(t, 4, cfg)
	d := DefaultDevice()
	net.Inject(&noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 5}, 0)
	net.AdvanceTo(64)
	st := cost(net, 1)
	if st.Quanta != 1 {
		t.Errorf("quanta = %d", st.Quanta)
	}
	if want := uint64(64 * d.Phases); st.Kernels != want {
		t.Errorf("kernels = %d, want %d", st.Kernels, want)
	}
	if st.LaunchNs != float64(st.Kernels)*d.KernelLaunchNs {
		t.Error("launch accounting wrong")
	}
	if st.BytesToDevice != uint64(d.PacketBytes) || st.BytesFromDevice != 0 {
		t.Errorf("bytes to/from device = %d/%d before any drain", st.BytesToDevice, st.BytesFromDevice)
	}
	// Idempotent advance: no extra kernels.
	net.AdvanceTo(64)
	if cost(net, 1).Kernels != st.Kernels {
		t.Error("advancing to the same cycle accrued kernels")
	}
}

func TestAdvanceAccountsKernelsGated(t *testing.T) {
	// With activity gating (the default), fast-forwarded cycles launch
	// no kernels: the count tracks stepped cycles exactly and comes in
	// under the exhaustive window.
	net := netOver(t, 4)
	d := DefaultDevice()
	net.Inject(&noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 5}, 0)
	net.AdvanceTo(64)
	st := cost(net, 1)
	act := net.ActivityStats()
	if want := act.Stepped * uint64(d.Phases); st.Kernels != want {
		t.Errorf("kernels = %d, want stepped*phases = %d", st.Kernels, want)
	}
	if act.Skipped == 0 {
		t.Error("a lone 5-flit packet in 64 cycles should fast-forward some cycles")
	}
	if st.Kernels >= uint64(64*d.Phases) {
		t.Errorf("gated kernel count %d not below exhaustive %d", st.Kernels, 64*d.Phases)
	}
	if st.LaunchNs != float64(st.Kernels)*d.KernelLaunchNs {
		t.Error("launch accounting wrong")
	}
}

func TestDrainAccountsReturnTransfer(t *testing.T) {
	net := netOver(t, 4)
	d := DefaultDevice()
	net.Inject(&noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, 0)
	net.AdvanceTo(100)
	if got := net.Drain(); len(got) != 1 {
		t.Fatalf("drained %d", len(got))
	}
	st := cost(net, 1)
	if st.BytesFromDevice != uint64(d.PacketBytes) {
		t.Errorf("from-device bytes = %d", st.BytesFromDevice)
	}
	// One batch each way: two latencies and the two descriptors.
	if want := 2*d.TransferLatencyNs + 2*float64(d.PacketBytes)/d.TransferBytesPerNs; st.TransferNs != want {
		t.Errorf("transfer = %v ns, want %v", st.TransferNs, want)
	}
	if net.Tracker().Count() != 1 {
		t.Error("latency stats missing")
	}
}

func TestNsPerCycleNearlyConstantBelowOneWave(t *testing.T) {
	small := netOver(t, 4)  // 16 routers
	large := netOver(t, 16) // 256 routers, still one wave
	small.AdvanceTo(128)
	large.AdvanceTo(128)
	d := DefaultDevice()
	a, b := d.NsPerCycle(cost(small, 1)), d.NsPerCycle(cost(large, 1))
	if math.IsNaN(a) || math.IsNaN(b) {
		t.Fatal("NaN per-cycle cost")
	}
	if math.Abs(a-b)/a > 0.05 {
		t.Errorf("per-cycle device cost should be nearly size-independent below one wave: %v vs %v", a, b)
	}
}

func TestBreakdownSharesSum(t *testing.T) {
	net := netOver(t, 4)
	net.Inject(&noc.Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, 0)
	net.AdvanceTo(50)
	net.Drain()
	st := cost(net, 1)
	total := st.TotalNs()
	shares := []float64{st.LaunchNs / total, st.ComputeNs / total, st.TransferNs / total}
	sum := 0.0
	for i, s := range shares {
		if s <= 0 {
			t.Errorf("share %d = %v, want positive", i, s)
		}
		sum += s
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Errorf("launch, compute and transfer shares sum to %v, want 1", sum)
	}
}

func TestIdleNsPerCycleIsNaN(t *testing.T) {
	d := DefaultDevice()
	if !math.IsNaN(d.NsPerCycle(cost(netOver(t, 4), 0))) {
		t.Error("expected NaN before any advance")
	}
	if !math.IsNaN(d.NsPerCycle(d.Cost(noc.ActivityStats{}, 0, 0, 0))) {
		t.Error("expected NaN for an empty account")
	}
}
