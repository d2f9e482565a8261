package obs_test

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"

	"repro"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestHeartbeat: a heartbeat subscribed to end-of-quantum records
// reports the simulated cycle while the run goes, never past where the
// run ended.
func TestHeartbeat(t *testing.T) {
	cs, err := repro.BuildCosim(repro.DefaultConfig(16), repro.ModeReciprocal, workload.NewFFT(16, 40, 5))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	var out bytes.Buffer
	ob := obs.New(obs.Options{})
	ob.Subscribe(obs.QuantumRecord, obs.NewHeartbeat(&out, 1, 1_000_000).Tick)
	cs.SetObserver(ob)
	if res := cs.Run(1_000_000); !res.Finished {
		t.Fatalf("fixture did not finish: %+v", res)
	}
	lines := regexp.MustCompile(`(?m)^cosim: cyc=(\d+) `).FindAllStringSubmatch(out.String(), -1)
	if len(lines) == 0 {
		t.Fatalf("no heartbeat line in %q", out.String())
	}
	for _, l := range lines {
		if c, _ := strconv.ParseUint(l[1], 10, 64); c > uint64(cs.Cycle()) {
			t.Errorf("heartbeat at cycle %d, past the run's final cycle %d", c, cs.Cycle())
		}
	}
}
