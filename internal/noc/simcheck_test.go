//go:build simcheck

package noc

import (
	"strings"
	"testing"
)

// TestMaskInvariantPanics: under simcheck every stepped router recounts
// its VC masks after ST, so a mask bit that drifts from the VC state it
// summarises stops the run at the first cycle it could have mis-steered
// an arbiter — while an uncorrupted run steps through the same checks
// silently.
func TestMaskInvariantPanics(t *testing.T) {
	n, _ := mesh4(t)
	n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 4}, 0)
	busy := -1
	for i := 0; i < 20 && busy < 0; i++ {
		n.Step()
		for r := 0; r < n.topo.NumRouters(); r++ {
			if n.occupied(r) {
				busy = r
			}
		}
	}
	if busy < 0 {
		t.Fatal("no router ever held a flit")
	}
	// Flag an idle VC as waiting for VA without touching its state.
	for rp := busy * n.ports; rp < (busy+1)*n.ports; rp++ {
		if m := &n.masks[rp]; m.buf|m.wait|m.act == 0 {
			m.wait = 1
			break
		}
	}
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, "invariant violated") || !strings.Contains(msg, "masks") {
			t.Fatalf("stepping with a corrupt mask: recovered %q, want the mask invariant panic", msg)
		}
	}()
	n.Step()
}
