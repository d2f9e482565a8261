//go:build simcheck

package noc

import (
	"strings"
	"testing"
)

// busyRouter steps a 4x4 mesh carrying one long packet until some router
// holds a flit, and returns that router: one whose next step reaches
// checkMasks with work in hand.
func busyRouter(t *testing.T) (*Network, int) {
	t.Helper()
	n, _ := mesh4(t)
	n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 4}, 0)
	for i := 0; i < 20; i++ {
		n.Step()
		for r := 0; r < n.routers; r++ {
			if n.occupied(r) {
				return n, r
			}
		}
	}
	t.Fatal("no router ever held a flit")
	return nil, 0
}

// wantInvariantPanic steps n once and fails unless the step stops on a
// simcheck invariant panic naming what.
func wantInvariantPanic(t *testing.T, n *Network, what string) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, what) {
			t.Fatalf("stepping with corrupt derived state: recovered %q, want the %s invariant panic", msg, what)
		}
	}()
	n.Step()
}

// TestMaskInvariantPanics: under simcheck every stepped router recounts
// its VC masks after ST, so a mask bit that drifts from the VC state it
// summarises stops the run at the first cycle it could have mis-steered
// an arbiter — while an uncorrupted run steps through the same checks
// silently.
func TestMaskInvariantPanics(t *testing.T) {
	n, busy := busyRouter(t)
	// Flag an idle VC as waiting for VA without touching its state.
	m := &n.masks[busy*n.mw]
	idle := ^(m.buf | m.wait | m.act) & below(int32(n.pv))
	if idle == 0 {
		t.Fatal("no idle input VC to corrupt")
	}
	m.wait |= idle & -idle
	wantInvariantPanic(t, n, "masks")
}

// TestQueuedInvariantPanics is the same for the NI's queued-packet
// count: one packet more or fewer than the queues hold would make an
// idle NI look busy, or a backlogged one look idle and never wake.
func TestQueuedInvariantPanics(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		n, busy := busyRouter(t)
		n.ifaces[n.niAt[busy*n.lp]].queued += delta
		wantInvariantPanic(t, n, "queued")
	}
}
