//go:build simcheck

package fullsys

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSleepInvariantPanics: under simcheck every Tick re-derives why
// each tile outside the sweep is outside it, so a wake source that
// bypasses handleL1 — here a miss completed by writing the core state
// directly — stops the run at the next cycle instead of charging load
// stalls to a core that is running. The same recount passes silently,
// and without allocating, while the tile's sleep is legitimate.
func TestSleepInvariantPanics(t *testing.T) {
	wl := NewScript([][]Op{{{Kind: OpLoad, Addr: addr(7)}}, {}})
	lb := &loopback{latency: 50}
	sys, err := New(DefaultConfig(2), wl, lb.send)
	if err != nil {
		t.Fatal(err)
	}
	lb.sys = sys
	tile := sys.Tile(0)
	now := sim.Cycle(0)
	for ; tile.sleep == awake; now++ {
		if now > 10 {
			t.Fatal("tile 0 never slept on its load miss")
		}
		sys.Tick(now)
		lb.deliverDue(now)
	}
	if tile.sleep != sleepLoad {
		t.Fatalf("tile 0 sleeps for reason %d, want a load stall", tile.sleep)
	}
	if allocs := testing.AllocsPerRun(100, sys.checkSleepers); allocs != 0 {
		t.Errorf("a passing sleep check allocates %.0f times", allocs)
	}

	tile.coreState = coreRunning
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "tile 0 sleeps") {
			t.Fatalf("ticking past a bypassed wake: recovered %q, want the sleep invariant panic", msg)
		}
	}()
	sys.Tick(now)
}
