package noc

import (
	"testing"
	"testing/quick"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// fifoNet returns a two-router network whose input-VC FIFOs hold depth
// flits, for exercising the flat FIFO and ring primitives directly.
func fifoNet(t *testing.T, depth, linkLat, credLat int) *Network {
	t.Helper()
	m := topology.NewMesh(2, 1, 1)
	cfg := DefaultConfig()
	cfg.BufDepth = depth
	cfg.LinkLatency = linkLat
	cfg.CreditLatency = credLat
	return mustNet(t, cfg, m, topology.NewXY(m))
}

func TestFlitFIFO(t *testing.T) {
	n := fifoNet(t, 3, 1, 1)
	const r, port, vc = 1, 2, 4
	i := r*n.pv + port*n.vcs + vc
	p := &Packet{Size: 3}
	for s := int32(0); s < 3; s++ {
		n.pushFlit(r, port, vc, p, s, 0)
	}
	if n.vcCount[i] != 3 || n.masks[r*n.mw].buf != 1<<(port*n.vcs+vc) || n.BufferedFlits() != 3 {
		t.Fatal("buffer should be full and flagged non-empty")
	}
	for s := int32(0); s < 3; s++ {
		if e := n.popFlit(r, port, vc); e.seq != s || e.pkt != p {
			t.Fatalf("pop order: got %d want %d", e.seq, s)
		}
	}
	if n.vcCount[i] != 0 || n.masks[r*n.mw].buf != 0 {
		t.Fatal("buffer should be empty and flagged so")
	}
	for k := range n.flits {
		if n.flits[k].pkt != nil {
			t.Fatalf("popped slot %d still references its packet", k)
		}
	}
}

func TestFlitFIFOWrapsAround(t *testing.T) {
	n := fifoNet(t, 2, 1, 1)
	p := &Packet{Size: 100}
	for i := int32(0); i < 20; i++ {
		n.pushFlit(0, 0, 0, p, i, 0)
		if i%2 == 1 {
			if e := n.popFlit(0, 0, 0); e.seq != i-1 {
				t.Fatalf("wrap pop: got %d want %d", e.seq, i-1)
			}
			if e := n.popFlit(0, 0, 0); e.seq != i {
				t.Fatalf("wrap pop: got %d want %d", e.seq, i)
			}
		}
	}
}

func TestFlitFIFOOverflowPanics(t *testing.T) {
	n := fifoNet(t, 1, 1, 1)
	n.pushFlit(0, 0, 0, &Packet{Size: 1}, 0, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("overflow should panic")
		}
	}()
	n.pushFlit(0, 0, 0, &Packet{Size: 1}, 0, 0)
}

func TestFlitFIFOEmptyFrontPanics(t *testing.T) {
	n := fifoNet(t, 1, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("front of empty buffer should panic")
		}
	}()
	n.front(0)
}

func TestHeadTailFlags(t *testing.T) {
	p := &Packet{Size: 3}
	if h := (flitEntry{pkt: p, seq: 0}); !h.head() || h.tail() {
		t.Error("seq 0 of 3 should be head only")
	}
	if tl := (flitEntry{pkt: p, seq: 2}); tl.head() || !tl.tail() {
		t.Error("seq 2 of 3 should be tail only")
	}
	single := &Packet{Size: 1}
	if s := (flitEntry{pkt: single, seq: 0}); !s.head() || !s.tail() {
		t.Error("single flit is both head and tail")
	}
}

// at moves the network's clock to cycle c without stepping and selects
// that cycle's ring slots.
func (n *Network) at(c sim.Cycle) *Network {
	n.cycle = c
	n.setSlots()
	return n
}

// Property: a flit sent on a link arrives exactly latency cycles later
// and exactly once.
func TestLinkLatencyProperty(t *testing.T) {
	f := func(latency uint8, start uint16) bool {
		lat := int(latency%8) + 1
		n := fifoNet(t, 4, lat, 1)
		const rp = 3
		t0 := sim.Cycle(start)
		p := &Packet{Size: 1}
		n.at(t0).sendFlit(rp, linkFlit{pkt: p})
		for c := t0; c < t0+sim.Cycle(lat); c++ {
			if _, ok := n.at(c).recvFlit(rp); ok {
				return false // arrived early
			}
		}
		got, ok := n.at(t0 + sim.Cycle(lat)).recvFlit(rp)
		if !ok || got.pkt != p {
			return false
		}
		// Gone after receipt.
		_, again := n.recvFlit(rp)
		return !again
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkCreditRoundTrip(t *testing.T) {
	n := fifoNet(t, 4, 1, 2)
	const rp = 3
	n.at(10).sendCredit(rp, 3)
	if _, ok := n.at(11).recvCredit(rp); ok {
		t.Fatal("credit arrived early")
	}
	vc, ok := n.at(12).recvCredit(rp)
	if !ok || vc != 3 {
		t.Fatalf("credit = %d, %v", vc, ok)
	}
}

func TestLinkCollisionPanics(t *testing.T) {
	n := fifoNet(t, 4, 1, 1)
	n.at(0).sendFlit(3, linkFlit{pkt: &Packet{Size: 1}})
	defer func() {
		if recover() == nil {
			t.Fatal("slot collision should panic")
		}
	}()
	// Same arrival slot without an intervening receive.
	n.at(2).sendFlit(3, linkFlit{pkt: &Packet{Size: 1}})
}

func TestPacketLatencyAccessors(t *testing.T) {
	p := &Packet{CreatedAt: 10, InjectedAt: 14, DeliveredAt: 40}
	if p.QueueingLatency() != 4 || p.NetworkLatency() != 26 || p.TotalLatency() != 30 {
		t.Errorf("latency accessors wrong: %d %d %d",
			p.QueueingLatency(), p.NetworkLatency(), p.TotalLatency())
	}
}

func TestHeatmapRendersGrid(t *testing.T) {
	n, _ := mesh4(t)
	n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 5}, 0)
	runUntilDelivered(t, n, 1, 300)
	hm := n.Heatmap()
	if len(hm) == 0 {
		t.Fatal("empty heatmap")
	}
	lines := 0
	for _, c := range hm {
		if c == '\n' {
			lines++
		}
	}
	if lines != 5 { // header + 4 rows
		t.Errorf("heatmap lines = %d, want 5:\n%s", lines, hm)
	}
	if got := n.LinkUtilization(); len(got) == 0 {
		t.Error("no link utilization entries")
	}
}
