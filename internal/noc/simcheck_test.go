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

// wantInvariantPanic calls step once and fails unless it stops on a
// simcheck invariant panic naming what.
func wantInvariantPanic(t *testing.T, step func(), what string) {
	t.Helper()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, what) {
			t.Fatalf("stepping with corrupt derived state: recovered %q, want the %s invariant panic", msg, what)
		}
	}()
	step()
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
	wantInvariantPanic(t, n.Step, "masks")
}

// TestQueuedInvariantPanics is the same for the NI's queued-packet
// count: one packet more or fewer than the queues hold would make an
// idle NI look busy, or a backlogged one look idle and never wake.
func TestQueuedInvariantPanics(t *testing.T) {
	for _, delta := range []int{+1, -1} {
		n, busy := busyRouter(t)
		n.ifaces[n.niAt[busy*n.lp]].queued += delta
		wantInvariantPanic(t, n.Step, "queued")
	}
}

// TestArrivalInvariantPanics: under simcheck every stepped router
// recounts its arrival bytes against its rings, so a dropped flit or
// credit bit — which would leave the flit or credit on its ring, never
// taken in — stops the run by the cycle it was due.
func TestArrivalInvariantPanics(t *testing.T) {
	for _, bit := range []byte{arrFlit, arrCred} {
		n, _ := busyRouter(t)
		flagged := -1
		for i := 0; i < 20 && flagged < 0; i++ {
			n.Step()
			for k, b := range n.arrivals {
				if b&bit != 0 {
					flagged = k
					break
				}
			}
		}
		if flagged < 0 {
			t.Fatalf("no arrival byte ever flagged bit %#x", bit)
		}
		n.arrivals[flagged] &^= bit
		wantInvariantPanic(t, func() {
			for i := 0; i < n.arrSlots; i++ {
				n.Step()
			}
		}, "arrival byte")
	}
}

// TestNIWorkInvariantPanics: the per-NI work flag decides whether
// ingress and rearm visit an NI at all, so a flag that drifts from the
// NI's idleness would skip an NI with packets to inject, or touch an
// idle one.
func TestNIWorkInvariantPanics(t *testing.T) {
	n, busy := busyRouter(t)
	lr := busy * n.lp
	n.niWork[lr] = !n.niWork[lr]
	wantInvariantPanic(t, n.Step, "work flag")
}

// TestHandleInvariantPanics: under simcheck the packet table is
// recounted after every Step and Drain, so a handle released twice —
// which would hand one table entry to two packets — a route key that
// drifts from its packet's endpoints, and a handle taken for no
// packet in flight each stop the run at the next check.
func TestHandleInvariantPanics(t *testing.T) {
	t.Run("double release", func(t *testing.T) {
		n, _ := mesh4(t)
		n.Inject(&Packet{Src: 0, Dst: 15, Size: 2}, 0)
		n.Inject(&Packet{Src: 3, Dst: 12, Size: 1}, 0)
		runUntilDelivered(t, n, 2, 300)
		n.free = append(n.free, n.free[len(n.free)-1])
		wantInvariantPanic(t, n.Step, "free twice")
	})
	t.Run("route key", func(t *testing.T) {
		n, _ := busyRouter(t)
		for h, p := range n.pkts {
			if p != nil {
				n.keys[h].dst ^= 1
				break
			}
		}
		wantInvariantPanic(t, n.Step, "route key")
	})
	t.Run("leaked handle", func(t *testing.T) {
		n, _ := busyRouter(t)
		n.take(&Packet{Size: 1})
		wantInvariantPanic(t, func() { n.Drain() }, "live packet handles")
	})
}
