package core

import (
	"testing"

	"repro/internal/abstractnet"
	"repro/internal/fullsys"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/obs"
	"repro/internal/workload"
)

// observedCosim builds the determinism fixture (16-tile FFT, detailed
// mesh, DDR memory: two kinds of component) under the given observer
// options; nil attaches none.
func observedCosim(t *testing.T, opts *obs.Options) *Cosim {
	t.Helper()
	cfg := fullsys.DefaultConfig(16)
	cfg.MemModel = "ddr"
	cs, err := Build(cfg, workload.NewFFT(16, 250, 42), detailedMeshBackend(t), 8)
	if err != nil {
		t.Fatal(err)
	}
	if opts != nil {
		cs.SetObserver(obs.New(*opts))
	}
	return cs
}

// TestWallSplitOnlyWhenWatched is the contract of Result.SysWall and
// Result.NetWall: Step reads the host clock only under an observer with
// Wall set, so the split is zero on every other run and positive there.
func TestWallSplitOnlyWhenWatched(t *testing.T) {
	for _, c := range []struct {
		name  string
		opts  *obs.Options
		timed bool
	}{
		{"unobserved", nil, false},
		{"metrics", &obs.Options{Metrics: true}, false},
		{"wall", &obs.Options{Wall: true}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			res := observedCosim(t, c.opts).Run(2_000_000)
			if !res.Finished {
				t.Fatalf("workload did not finish: %+v", res)
			}
			if got := res.SysWall > 0 && res.NetWall > 0; c.timed && !got {
				t.Errorf("a Wall observer left the split unmeasured: sys=%v net=%v", res.SysWall, res.NetWall)
			}
			if !c.timed && (res.SysWall != 0 || res.NetWall != 0) {
				t.Errorf("nobody asked for host timing, yet sys=%v net=%v", res.SysWall, res.NetWall)
			}
		})
	}
}

// TestMetricsWallObserverAddsNoAllocs: a Metrics+Wall observer with no
// trace attached — bench's traced pass, every cosimd session nobody
// streams — must cost a Step no heap allocation: the span annotations
// exist only for a trace that keeps them.
func TestMetricsWallObserverAddsNoAllocs(t *testing.T) {
	allocs := func(opts *obs.Options) float64 {
		cs := observedCosim(t, opts)
		// Past the cold start (pools filled, queues grown), and the same
		// simulated window on both sides.
		cs.Run(2_048)
		return testing.AllocsPerRun(256, func() { cs.Step() })
	}
	plain := allocs(nil)
	observed := allocs(&obs.Options{Metrics: true, Wall: true})
	if observed > plain {
		t.Errorf("a Metrics+Wall observer allocates on the step path: %.0f allocs/Step against %.0f unobserved", observed, plain)
	}
}

// TestCompositeReportsDetailedNoC: in hybrid and calibrated runs the
// detailed side does most of the work, so its NoC numbers are the
// run's: the registry carries the stepping and switching the detailed
// network did.
func TestCompositeReportsDetailedNoC(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func(det *noc.Network, tuned *abstractnet.Tuned) (Backend, error)
	}{
		{"calibrated", func(det *noc.Network, tuned *abstractnet.Tuned) (Backend, error) {
			return NewCalibrated(det, tuned, 500)
		}},
		{"hybrid", func(det *noc.Network, tuned *abstractnet.Tuned) (Backend, error) {
			return NewHybrid(det, tuned, 1000, 500)
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			m := topology.NewMesh(4, 4, 1)
			tuned := abstractnet.NewTuned(abstractnet.NewFixed(m, abstractnet.DefaultParams()), 64)
			b, err := c.build(detailedMeshBackend(t), tuned)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := Build(fullsys.DefaultConfig(16), workload.NewFFT(16, 100, 42), b, 1)
			if err != nil {
				t.Fatal(err)
			}
			ob := obs.New(obs.Options{Metrics: true})
			cs.SetObserver(ob)
			if res := cs.Run(2_000_000); !res.Finished {
				t.Fatalf("workload did not finish: %+v", res)
			}
			got := map[string]float64{}
			ob.Metrics().Visit(func(v obs.MetricView) { got[v.Name] = v.Value })
			for _, name := range []string{"net.cycles_stepped", "net.flits_switched", "net.active_occupancy"} {
				if got[name] <= 0 {
					t.Errorf("%s = %v, want > 0 from the detailed side", name, got[name])
				}
			}
		})
	}
}
