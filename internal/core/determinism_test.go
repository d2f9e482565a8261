package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/obs"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

// cosimFingerprint runs one seeded FFT workload through the full
// co-simulation path (fullsys + Cosim + the chosen backend) and
// summarizes every externally observable outcome. Floating-point
// values are formatted with %x so the comparison is bit-exact: the
// accuracy experiments (C1-C3) are only meaningful if this string is
// identical run to run. Mirrors internal/noc/determinism_test.go for
// the system half of the coupling.
func cosimFingerprint(t *testing.T, seed uint64, quantum int, backend func(t *testing.T) Backend) string {
	t.Helper()
	return cosimFingerprintCfg(t, seed, quantum, backend, nil)
}

// cosimFingerprintCfg is cosimFingerprint with a config mutation (e.g.
// a non-default memory model).
func cosimFingerprintCfg(t *testing.T, seed uint64, quantum int, backend func(t *testing.T) Backend,
	mutate func(*fullsys.Config)) string {
	t.Helper()
	wl := workload.NewFFT(16, 250, seed)
	cfg := fullsys.DefaultConfig(16)
	if mutate != nil {
		mutate(&cfg)
	}
	cs, err := Build(cfg, wl, backend(t), quantum)
	if err != nil {
		t.Fatal(err)
	}
	res := cs.Run(2_000_000)
	if !res.Finished {
		t.Fatalf("workload did not finish: %+v", res)
	}
	return fingerprintOf(cs, res)
}

// fingerprintOf formats every externally observable outcome of a
// finished run, bit-exactly.
func fingerprintOf(cs *Cosim, res Result) string {
	hits, misses := cs.Sys.L1Stats()
	return fmt.Sprintf(
		"exec=%d retired=%d pkts=%d lat=%x netlat=%x p95=%x hops=%x skew=%x maxskew=%d msgs=%d flits=%d local=%d l1=%d/%d",
		res.ExecCycles, res.Retired, res.Packets,
		res.AvgLatency, res.AvgNetLatency, res.P95Latency, res.AvgHops,
		res.AvgSkew, res.MaxSkew,
		cs.Sys.MsgsSent(), cs.Sys.FlitsSent(), cs.Sys.LocalMsgs(), hits, misses)
}

func detailedMeshBackend(t *testing.T) Backend {
	t.Helper()
	m := topology.NewMesh(4, 4, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(net.Close)
	return NewDetailed(net)
}

// shardedMeshBackend is detailedMeshBackend with the NoC sharded
// across the given worker count.
func shardedMeshBackend(workers int) func(t *testing.T) Backend {
	return func(t *testing.T) Backend {
		t.Helper()
		m := topology.NewMesh(4, 4, 1)
		net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m), noc.WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(net.Close)
		return NewDetailed(net)
	}
}

// TestCosimShardedBitIdentical is the co-simulation-level shard
// guarantee: sharding the NoC sweep must leave the full-system outcome
// bit-identical to the default one-shard sweep.
func TestCosimShardedBitIdentical(t *testing.T) {
	setMem := func(cfg *fullsys.Config) { cfg.MemModel = "ddr" }
	seq := cosimFingerprintCfg(t, 42, 8, detailedMeshBackend, setMem)
	// 32 exceeds the 16-router mesh: the shard clamp.
	for _, w := range []int{1, 2, 4, 32} {
		if got := cosimFingerprintCfg(t, 42, 8, shardedMeshBackend(w), setMem); got != seq {
			t.Errorf("sharded NoC stepping (workers=%d) diverged from sequential\nseq: %s\nshd: %s", w, seq, got)
		}
	}
}

// TestCosimCloseBitIdentical: Close stops the components' worker pools
// and nothing else, and the next Step restarts them, so a run over the
// sharded NoC that is closed every few quanta and continued ends
// bit-identically to the one-shard run that never stopped.
func TestCosimCloseBitIdentical(t *testing.T) {
	setMem := func(cfg *fullsys.Config) { cfg.MemModel = "ddr" }
	seq := cosimFingerprintCfg(t, 42, 8, detailedMeshBackend, setMem)

	cfg := fullsys.DefaultConfig(16)
	setMem(&cfg)
	cs, err := Build(cfg, workload.NewFFT(16, 250, 42), shardedMeshBackend(4)(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	var res Result
	for closes := 0; !res.Finished; closes++ {
		if closes > 10_000 {
			t.Fatalf("workload did not finish: %+v", res)
		}
		res = cs.Run(cs.Cycle() + 512)
		cs.Close()
	}
	if got := fingerprintOf(cs, res); got != seq {
		t.Errorf("a run closed every 512 cycles and continued diverged from the uninterrupted one\nseq:    %s\nclosed: %s", seq, got)
	}
}

// TestCosimDeterministic is the full-system determinism regression:
// the same seeded workload through a freshly built system + detailed
// NoC must produce a bit-identical outcome, at both the synchronous
// ground-truth quantum and a batched quantum.
func TestCosimDeterministic(t *testing.T) {
	for _, quantum := range []int{1, 8} {
		quantum := quantum
		t.Run(fmt.Sprintf("detailed/q%d", quantum), func(t *testing.T) {
			a := cosimFingerprint(t, 42, quantum, detailedMeshBackend)
			b := cosimFingerprint(t, 42, quantum, detailedMeshBackend)
			if a != b {
				t.Errorf("co-simulation diverged between identical runs\nrun1: %s\nrun2: %s", a, b)
			}
		})
	}
	t.Run("abstract/q8", func(t *testing.T) {
		a := cosimFingerprint(t, 42, 8, func(t *testing.T) Backend { return abstractBackend() })
		b := cosimFingerprint(t, 42, 8, func(t *testing.T) Backend { return abstractBackend() })
		if a != b {
			t.Errorf("abstract co-simulation diverged\nrun1: %s\nrun2: %s", a, b)
		}
	})
	for _, mem := range []string{"ddr", "abstract", "calibrated"} {
		mem := mem
		t.Run("mem-"+mem+"/q8", func(t *testing.T) {
			setMem := func(cfg *fullsys.Config) { cfg.MemModel = mem }
			a := cosimFingerprintCfg(t, 42, 8, detailedMeshBackend, setMem)
			b := cosimFingerprintCfg(t, 42, 8, detailedMeshBackend, setMem)
			if a != b {
				t.Errorf("co-simulation with the %s memory model diverged\nrun1: %s\nrun2: %s", mem, a, b)
			}
		})
	}
}

// TestObservabilityZeroPerturbation is the observability layer's
// non-negotiable: attaching a fully enabled observer (tracing,
// metrics, calibration telemetry) must change neither the determinism
// fingerprint of a run nor the bytes of a mid-run snapshot. The
// calibrated memory model is used so the retune-sink wiring — the one
// place observability touches the calibration loop — is exercised.
func TestObservabilityZeroPerturbation(t *testing.T) {
	full := obs.Options{Trace: true, Metrics: true, Calib: true}
	timed := full
	timed.Wall = true
	variants := []struct {
		name    string
		backend func(t *testing.T) Backend
		opts    obs.Options
	}{
		{"sequential", detailedMeshBackend, full},
		// The sharded NoC registers extra gauges (net.shards etc.) whose
		// sampling must be just as invisible — and with wall timing off,
		// the wall-derived barrier-share gauge must not register at all.
		{"sharded", shardedMeshBackend(4), full},
		// Wall turns on the only clock reads of the step path (and the
		// wall.* histograms and barrier-share gauge): host time is
		// recorded, never fed back.
		{"sequential-wall", detailedMeshBackend, timed},
		{"sharded-wall", shardedMeshBackend(4), timed},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			run := func(observe bool) (string, []byte, *obs.Observer) {
				wl := workload.NewFFT(16, 250, 42)
				cfg := fullsys.DefaultConfig(16)
				cfg.MemModel = "calibrated"
				cs, err := Build(cfg, wl, v.backend(t), 8)
				if err != nil {
					t.Fatal(err)
				}
				var ob *obs.Observer
				if observe {
					ob = obs.New(v.opts)
					cs.SetObserver(ob)
				}
				// Snapshot mid-run, with packets in flight and (in the observed
				// run) spans and counters already recorded.
				if cs.Run(5_000).Finished {
					t.Fatal("fixture finished before the mid-run snapshot point")
				}
				e := snapshot.NewEncoder(7)
				if err := cs.SnapshotTo(e); err != nil {
					t.Fatal(err)
				}
				blob := e.Finish()
				res := cs.Run(2_000_000)
				if !res.Finished {
					t.Fatalf("workload did not finish: %+v", res)
				}
				return fingerprintOf(cs, res), blob, ob
			}

			plainFP, plainSnap, _ := run(false)
			obsFP, obsSnap, ob := run(true)

			// Guard the guard: the observer must actually have seen the run,
			// otherwise identical outputs would be vacuous.
			if ob.Metrics().Len() == 0 || ob.Trace().Len() == 0 || ob.Calib().Len() == 0 {
				t.Fatalf("observer recorded nothing (metrics=%d trace=%d calib=%d); the comparison is vacuous",
					ob.Metrics().Len(), ob.Trace().Len(), ob.Calib().Len())
			}
			if plainFP != obsFP {
				t.Errorf("observability perturbed the run\nplain:    %s\nobserved: %s", plainFP, obsFP)
			}
			if !bytes.Equal(plainSnap, obsSnap) {
				t.Errorf("observability perturbed snapshot bytes: %d bytes vs %d (first diff at %d)",
					len(plainSnap), len(obsSnap), firstDiff(plainSnap, obsSnap))
			}
		})
	}
}

// firstDiff reports the first differing byte offset, or -1.
func firstDiff(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	if len(a) != len(b) {
		return n
	}
	return -1
}

// BenchmarkStepObserved pins the cost of the observability seam on the
// coordinator hot path: "off" is the disabled path every production
// run pays (a nil-handle check per quantum) and must stay within noise
// of historical Step cost; "on" is the full tracing+metrics price.
func BenchmarkStepObserved(b *testing.B) {
	for _, mode := range []string{"off", "on"} {
		b.Run(mode, func(b *testing.B) {
			m := topology.NewMesh(4, 4, 1)
			net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
			if err != nil {
				b.Fatal(err)
			}
			defer net.Close()
			wl := workload.NewFFT(16, 1<<30, 5) // effectively endless
			cs, err := Build(fullsys.DefaultConfig(16), wl, NewDetailed(net), 8)
			if err != nil {
				b.Fatal(err)
			}
			if mode == "on" {
				ob := obs.New(obs.Options{Trace: true, Metrics: true, Calib: true})
				cs.SetObserver(ob)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.Step()
			}
		})
	}
}

// TestCosimFingerprintSensitive guards the guard: a different seed
// must change the fingerprint, otherwise TestCosimDeterministic would
// vacuously pass.
func TestCosimFingerprintSensitive(t *testing.T) {
	a := cosimFingerprint(t, 42, 8, detailedMeshBackend)
	b := cosimFingerprint(t, 43, 8, detailedMeshBackend)
	if a == b {
		t.Error("fingerprint identical across different seeds; it is not observing the run")
	}
}
