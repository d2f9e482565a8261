package obs_test

import (
	"runtime"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

// retuneRunMallocs runs a calibrated-memory 16-tile fft at Q = 1 under
// the observer opts builds, and reports the heap allocations the run
// made (construction excluded) and how many retunes wire counted.
func retuneRunMallocs(t *testing.T, wire func() (*obs.Observer, *int)) (mallocs uint64, retunes int) {
	t.Helper()
	cfg := repro.DefaultConfig(16)
	cfg.Quantum = 1
	cfg.System.MemModel = "calibrated"
	cs, err := repro.BuildCosim(cfg, repro.ModeCalibrated, workload.NewFFT(16, 100, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	ob, n := wire()
	cs.SetObserver(ob)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if res := cs.Run(10_000_000); !res.Finished {
		t.Fatalf("fixture did not finish: %+v", res)
	}
	runtime.ReadMemStats(&after)
	return after.Mallocs - before.Mallocs, *n
}

// TestRetuneSubscriberAllocations: a consumer that wants only retunes
// pays for retunes, not for every span and counter sample the run
// could have traced. Subscribing to retunes may cost at most a small
// constant per retune over a run that only summarises them.
func TestRetuneSubscriberAllocations(t *testing.T) {
	base, _ := retuneRunMallocs(t, func() (*obs.Observer, *int) {
		return obs.New(obs.Options{Calib: true}), new(int)
	})
	subscribed, retunes := retuneRunMallocs(t, func() (*obs.Observer, *int) {
		ob := obs.New(obs.Options{Calib: true})
		n := new(int)
		ob.Subscribe(obs.RetuneRecord, func(obs.Record) { *n++ })
		return ob, n
	})
	if retunes == 0 {
		t.Fatal("the run retuned nothing; the comparison is vacuous")
	}
	const perRetune, slack = 1, 256
	extra := int64(subscribed) - int64(base)
	t.Logf("%d retunes: %d mallocs summarising, %d subscribed (%+d)", retunes, base, subscribed, extra)
	if extra > int64(perRetune*retunes+slack) {
		t.Errorf("a retune-only subscriber made %d more allocations than the summary alone over %d retunes (bound %d)",
			extra, retunes, perRetune*retunes+slack)
	}
}
