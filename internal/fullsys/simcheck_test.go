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

// TestStateLayoutInvariantPanics plants one violation of each promise
// the compact full-system state keeps — a request queue on an idle
// line, a sharer handle shared by two lines, an L1 flag byte with a
// bit outside its three fields — and expects the simcheck panic at the
// next access: the home's next message on the line, the core's next
// lookup.
func TestStateLayoutInvariantPanics(t *testing.T) {
	const line, other = 4, 6 // both homed at tile 0 of two
	for _, tc := range []struct {
		name, want string
		plant      func(tile *Tile)
		trigger    func(sys *System, tile *Tile)
	}{
		{"queue-on-idle-line", "queues 1 requests", func(tile *Tile) {
			tile.dirLineOf(line)
			tile.waitq[line] = []Msg{{Type: GetS, Line: line, Src: 1, Dst: 0}}
		}, putE},
		{"shared-sharer-handle", "issued elsewhere", func(tile *Tile) {
			d := tile.dirLineOf(other)
			tile.sharers.add(&d.sharers, other, 1)
			tile.dirLineOf(line).sharers = d.sharers
		}, putE},
		{"stray-l1-flag", "flag byte 0x80", func(tile *Tile) {
			tile.l1.flags[0] |= 0x80
		}, func(sys *System, _ *Tile) { sys.Tick(0) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			wl := NewScript([][]Op{{{Kind: OpLoad, Addr: addr(0)}}, {}})
			lb := &loopback{latency: 5}
			sys, err := New(DefaultConfig(2), wl, lb.send)
			if err != nil {
				t.Fatal(err)
			}
			lb.sys = sys
			tile := sys.Tile(0)
			tc.plant(tile)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, tc.want) {
					t.Fatalf("recovered %q, want the invariant panic naming %q", msg, tc.want)
				}
			}()
			tc.trigger(sys, tile)
		})
	}
}

// putE delivers a PutE for line 4 from tile 1 to its home, tile 0.
func putE(_ *System, tile *Tile) {
	tile.handleHome(0, Msg{Type: PutE, Line: 4, Src: 1, Dst: 0})
}
