package repro

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/gpu"
	"repro/internal/noc"
	"repro/internal/stats"
	"repro/internal/workload"
)

// runMode builds and runs one co-simulation to completion.
func runMode(t *testing.T, tiles int, mode Mode, mkwl func() *workload.Synthetic) core.Result {
	t.Helper()
	cfg := DefaultConfig(tiles)
	cs, err := BuildCosim(cfg, mode, mkwl())
	if err != nil {
		t.Fatalf("BuildCosim(%s): %v", mode, err)
	}
	defer cs.Net.Close()
	res := cs.Run(5_000_000)
	if !res.Finished {
		t.Fatalf("mode %s did not finish (cycle %d, in-flight %d)", mode, res.ExecCycles, cs.Net.InFlight())
	}
	return res
}

func TestAllModesComplete(t *testing.T) {
	mk := func() *workload.Synthetic { return workload.NewOcean(16, 300, 7) }
	for _, mode := range Modes() {
		mode := mode
		t.Run(string(mode), func(t *testing.T) {
			res := runMode(t, 16, mode, mk)
			if res.Packets == 0 {
				t.Error("no packets delivered")
			}
			if res.Retired == 0 {
				t.Error("no ops retired")
			}
		})
	}
}

// TestReciprocalMoreAccurateThanAbstract is the library-level check of
// the paper's central claim (C2): against the synchronous ground
// truth, the reciprocal co-simulation's packet latency error must be
// far below the abstract model's.
func TestReciprocalMoreAccurateThanAbstract(t *testing.T) {
	mk := func() *workload.Synthetic { return workload.NewRadix(16, 400, 11) }
	truth := runMode(t, 16, ModeSynchronous, mk)
	abs := runMode(t, 16, ModeAbstract, mk)
	rec := runMode(t, 16, ModeReciprocal, mk)

	errAbs := stats.AbsPctErr(abs.AvgLatency, truth.AvgLatency)
	errRec := stats.AbsPctErr(rec.AvgLatency, truth.AvgLatency)
	t.Logf("truth=%.2f abstract=%.2f (%.1f%% err) reciprocal=%.2f (%.1f%% err)",
		truth.AvgLatency, abs.AvgLatency, errAbs, rec.AvgLatency, errRec)
	if errRec >= errAbs {
		t.Errorf("reciprocal error %.1f%% not below abstract error %.1f%%", errRec, errAbs)
	}
	if red := stats.ErrorReduction(errAbs, errRec); red < 30 {
		t.Errorf("error reduction %.1f%% implausibly low (paper: 69%% average)", red)
	}
}

// TestSynchronousMatchesQuantumOnePath: ModeReciprocal with quantum 1
// must agree exactly with ModeSynchronous (same backend, same sync).
func TestSynchronousEqualsReciprocalQ1(t *testing.T) {
	mk := func() *workload.Synthetic { return workload.NewFFT(16, 200, 3) }
	truth := runMode(t, 16, ModeSynchronous, mk)

	cfg := DefaultConfig(16)
	cfg.Quantum = 1
	cs, err := BuildCosim(cfg, ModeReciprocal, mk())
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Net.Close()
	res := cs.Run(5_000_000)
	if res.ExecCycles != truth.ExecCycles || res.Packets != truth.Packets ||
		math.Abs(res.AvgLatency-truth.AvgLatency) > 1e-9 {
		t.Errorf("Q=1 reciprocal diverged from synchronous: %+v vs %+v", res, truth)
	}
}

// TestQuantumSkewBounded: quantum-induced delivery skew must never
// exceed Q-1 cycles.
func TestQuantumSkewBounded(t *testing.T) {
	for _, q := range []int{16, 128} {
		cfg := DefaultConfig(16)
		cfg.Quantum = q
		cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewCanneal(16, 300, 5))
		if err != nil {
			t.Fatal(err)
		}
		res := cs.Run(5_000_000)
		cs.Net.Close()
		if int(res.MaxSkew) > q-1 {
			t.Errorf("q=%d: max skew %d exceeds quantum bound %d", q, res.MaxSkew, q-1)
		}
		if q > 1 && res.AvgSkew == 0 {
			t.Errorf("q=%d: expected nonzero skew under load", q)
		}
	}
}

// TestOffloadCostMatchesRetiredBackend pins gpu.Device.Cost to the
// offload backend it replaced, which wrapped the detailed network and
// accounted the device per call. The table holds that backend's
// accounting of radix runs at 150 ops per core, as it recorded it;
// Cost, fed the same runs' counters, must reproduce it. Transfers are
// the one deliberate change: the backend charged the device-to-host
// latency only on quanta that delivered something, Cost charges it on
// every quantum, so the transfer time may exceed the recorded one by
// whole latencies, at most one per quantum.
func TestOffloadCostMatchesRetiredBackend(t *testing.T) {
	for _, c := range []struct {
		tiles, quantum int
		disableGating  bool
		want           gpu.Stats
	}{
		{16, 64, false, gpu.Stats{Quanta: 525, Kernels: 102385, LaunchNs: 1.02385e+09, ComputeNs: 2.559625e+08, TransferNs: 8.422488e+06, BytesToDevice: 249952, BytesFromDevice: 249952}},
		{16, 256, false, gpu.Stats{Quanta: 433, Kernels: 92695, LaunchNs: 9.2695e+08, ComputeNs: 2.317375e+08, TransferNs: 6.982488e+06, BytesToDevice: 249952, BytesFromDevice: 249952}},
		{64, 64, false, gpu.Stats{Quanta: 647, Kernels: 185550, LaunchNs: 1.8555e+09, ComputeNs: 4.63875e+08, TransferNs: 1.0566208e+07, BytesToDevice: 1080832, BytesFromDevice: 1080832}},
		{64, 256, false, gpu.Stats{Quanta: 502, Kernels: 208625, LaunchNs: 2.08625e+09, ComputeNs: 5.215625e+08, TransferNs: 8.294168e+06, BytesToDevice: 1080672, BytesFromDevice: 1080672}},
		{16, 64, true, gpu.Stats{Quanta: 525, Kernels: 168000, LaunchNs: 1.68e+09, ComputeNs: 4.2e+08, TransferNs: 8.422488e+06, BytesToDevice: 249952, BytesFromDevice: 249952}},
	} {
		cfg := DefaultConfig(c.tiles)
		cfg.Quantum = c.quantum
		cfg.DisableGating = c.disableGating
		cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewRadix(c.tiles, 150, 42))
		if err != nil {
			t.Fatal(err)
		}
		if res := cs.Run(5_000_000); !res.Finished {
			t.Fatalf("%+v: did not finish", c)
		}
		net := cs.Net.(*noc.Network)
		dev := gpu.DefaultDevice()
		got := dev.Cost(net.ActivityStats(), uint64(cs.Cycle())/uint64(cs.Quantum), net.Injected(), net.Delivered())
		cs.Close()
		exact := got
		exact.TransferNs = c.want.TransferNs
		if exact != c.want {
			t.Errorf("%d tiles, q%d, gating off %v: cost %+v, want %+v", c.tiles, c.quantum, c.disableGating, got, c.want)
		}
		extra := (got.TransferNs - c.want.TransferNs) / dev.TransferLatencyNs
		tol := 1e-9 * c.want.TransferNs / dev.TransferLatencyNs
		if extra < -tol || math.Abs(extra-math.Round(extra)) > tol || extra > float64(got.Quanta)+tol {
			t.Errorf("%d tiles, q%d, gating off %v: transfer %v ns is not the recorded %v ns plus 0..%d whole latencies",
				c.tiles, c.quantum, c.disableGating, got.TransferNs, c.want.TransferNs, got.Quanta)
		}
	}
}

// TestHybridAccuracy: on 16-tile LU, the sampling mode's average
// packet latency error against the synchronous ground truth is at
// most 1.2 times the raw abstract model's. It does not compare hybrid
// with reciprocal mode.
func TestHybridAccuracy(t *testing.T) {
	mk := func() *workload.Synthetic { return workload.NewLU(16, 400, 13) }
	truth := runMode(t, 16, ModeSynchronous, mk)
	abs := runMode(t, 16, ModeAbstract, mk)
	hyb := runMode(t, 16, ModeHybrid, mk)
	errAbs := stats.AbsPctErr(abs.AvgLatency, truth.AvgLatency)
	errHyb := stats.AbsPctErr(hyb.AvgLatency, truth.AvgLatency)
	t.Logf("abstract err %.1f%%, hybrid err %.1f%%", errAbs, errHyb)
	if errHyb > errAbs*1.2 {
		t.Errorf("hybrid error %.1f%% worse than abstract %.1f%%", errHyb, errAbs)
	}
}

func TestDeterministicCosim(t *testing.T) {
	mk := func() *workload.Synthetic { return workload.NewBarnes(16, 300, 21) }
	a := runMode(t, 16, ModeReciprocal, mk)
	b := runMode(t, 16, ModeReciprocal, mk)
	if a.ExecCycles != b.ExecCycles || a.Packets != b.Packets || a.AvgLatency != b.AvgLatency {
		t.Errorf("nondeterministic co-simulation: %+v vs %+v", a, b)
	}
}

func TestGridDerivation(t *testing.T) {
	cases := []struct {
		tiles, conc, w, h int
	}{
		{16, 1, 4, 4}, {64, 1, 8, 8}, {256, 1, 16, 16}, {512, 1, 32, 16},
		{128, 2, 8, 8}, {12, 1, 4, 3},
	}
	for _, c := range cases {
		cfg := DefaultConfig(c.tiles)
		cfg.Concentration = c.conc
		w, h, err := cfg.gridDims()
		if err != nil {
			t.Fatalf("tiles=%d: %v", c.tiles, err)
		}
		if w != c.w || h != c.h {
			t.Errorf("tiles=%d conc=%d: got %dx%d want %dx%d", c.tiles, c.conc, w, h, c.w, c.h)
		}
	}
	bad := DefaultConfig(10)
	bad.Concentration = 3
	if _, _, err := bad.gridDims(); err == nil {
		t.Error("indivisible concentration should error")
	}
}

// TestCalibratedExecAccuracy: the full reciprocal-feedback integration
// times the system from the tuned model (no quantum skew), so its
// execution-time error must beat the quantum-lagged detailed coupling,
// and its measured packet latency must track ground truth closely.
func TestCalibratedExecAccuracy(t *testing.T) {
	mk := func() *workload.Synthetic { return workload.NewOcean(16, 400, 17) }
	truth := runMode(t, 16, ModeSynchronous, mk)
	rec := runMode(t, 16, ModeReciprocal, mk)
	cal := runMode(t, 16, ModeCalibrated, mk)

	errRecExec := stats.AbsPctErr(float64(rec.ExecCycles), float64(truth.ExecCycles))
	errCalExec := stats.AbsPctErr(float64(cal.ExecCycles), float64(truth.ExecCycles))
	errCalLat := stats.AbsPctErr(cal.AvgLatency, truth.AvgLatency)
	t.Logf("exec: truth=%d reciprocal=%d (%.1f%%) calibrated=%d (%.1f%%); calibrated lat err %.1f%%",
		truth.ExecCycles, rec.ExecCycles, errRecExec, cal.ExecCycles, errCalExec, errCalLat)
	if errCalExec >= errRecExec {
		t.Errorf("calibrated exec error %.1f%% should beat quantum-lagged %.1f%%", errCalExec, errRecExec)
	}
	if errCalLat > 25 {
		t.Errorf("calibrated measured latency error %.1f%% too high", errCalLat)
	}
}

// TestDDRMemoryCosim runs a full co-simulation with the detailed DRAM
// model behind the memory controllers.
func TestDDRMemoryCosim(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.System.MemModel = "ddr"
	cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewCanneal(16, 300, 7))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Net.Close()
	res := cs.Run(5_000_000)
	if !res.Finished {
		t.Fatalf("ddr co-simulation did not finish: %+v", res)
	}
	st := cs.Sys.DRAMStats()
	if st.Reads == 0 {
		t.Error("detailed memory model saw no traffic")
	}
}

// TestTorusCosim exercises dateline routing under full coherence
// traffic.
func TestTorusCosim(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Torus = true
	cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewBarnes(16, 300, 19))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Net.Close()
	res := cs.Run(5_000_000)
	if !res.Finished {
		t.Fatalf("torus co-simulation did not finish: %+v", res)
	}
}

// TestConcentratedMeshCosim exercises multi-terminal routers.
func TestConcentratedMeshCosim(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Concentration = 4 // 2x2 routers, 4 terminals each
	cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewWater(16, 300, 23))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Net.Close()
	res := cs.Run(5_000_000)
	if !res.Finished {
		t.Fatalf("concentrated-mesh co-simulation did not finish: %+v", res)
	}
	if res.AvgHops <= 0 {
		t.Error("no hops recorded")
	}
}

// TestOddEvenRoutingCosim exercises adaptive routing under coherence
// traffic end to end.
func TestOddEvenRoutingCosim(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Routing = "oddeven"
	cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewRadix(16, 300, 29))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Net.Close()
	if res := cs.Run(5_000_000); !res.Finished {
		t.Fatalf("odd-even co-simulation did not finish: %+v", res)
	}
}
