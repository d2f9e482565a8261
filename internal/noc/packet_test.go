package noc

import (
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

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
	h := n.take(&Packet{Size: 3})
	for s := int32(0); s < 3; s++ {
		n.pushFlit(r, port, vc, flitEntry{ref: n.refOf(h, s), seq: s})
	}
	if n.vcCount[i] != 3 || n.masks[r*n.mw].buf != 1<<(port*n.vcs+vc) || n.BufferedFlits() != 3 {
		t.Fatal("buffer should be full and flagged non-empty")
	}
	for s := int32(0); s < 3; s++ {
		if e := n.popFlit(r, port, vc); e.seq != s || e.handle() != h {
			t.Fatalf("pop order: got %d want %d", e.seq, s)
		}
	}
	if n.vcCount[i] != 0 || n.masks[r*n.mw].buf != 0 {
		t.Fatal("buffer should be empty and flagged so")
	}
}

func TestFlitFIFOWrapsAround(t *testing.T) {
	n := fifoNet(t, 2, 1, 1)
	h := n.take(&Packet{Size: 100})
	for i := int32(0); i < 20; i++ {
		n.pushFlit(0, 0, 0, flitEntry{ref: h, seq: i})
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
	n.pushFlit(0, 0, 0, flitEntry{ref: n.take(&Packet{Size: 1}) | tailBit})
	defer func() {
		if recover() == nil {
			t.Fatal("overflow should panic")
		}
	}()
	n.pushFlit(0, 0, 0, flitEntry{ref: n.take(&Packet{Size: 1}) | tailBit})
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
	n := fifoNet(t, 1, 1, 1)
	flitOf := func(h uint32, seq int32) flitEntry { return flitEntry{ref: n.refOf(h, seq), seq: seq} }
	p := n.take(&Packet{Size: 3})
	if h := flitOf(p, 0); !h.head() || h.tail() || h.handle() != p {
		t.Error("seq 0 of 3 should be head only")
	}
	if tl := flitOf(p, 2); tl.head() || !tl.tail() || tl.handle() != p {
		t.Error("seq 2 of 3 should be tail only")
	}
	single := n.take(&Packet{Size: 1})
	if s := flitOf(single, 0); !s.head() || !s.tail() || s.handle() != single {
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

// recvFlit takes the flit its arrival byte flags at port record rp in
// the cycle n is at, as ingress does.
func (n *Network) recvFlit(rp int) (linkFlit, bool) {
	b := &n.arrivals[n.arrIndex(n.cycle, rp/n.ports, rp%n.ports)]
	if *b&arrFlit == 0 {
		return linkFlit{}, false
	}
	*b &^= arrFlit
	return n.takeFlit(rp), true
}

// recvCredit is recvFlit for credits.
func (n *Network) recvCredit(rp int) (int16, bool) {
	b := &n.arrivals[n.arrIndex(n.cycle, rp/n.ports, rp%n.ports)]
	if *b&arrCred == 0 {
		return -1, false
	}
	*b &^= arrCred
	return n.takeCredit(rp), true
}

// linkEnd is port 3 of router 0 of a fifoNet, the far end of a link.
var linkEnd = portRef{slot: 3, router: 0}

// Property: a flit sent on a link is flagged and taken in exactly
// LinkLatency + RouterStages - 1 cycles later — the cycle it can first
// be switched — and exactly once.
func TestLinkLatencyProperty(t *testing.T) {
	f := func(latency, stages uint8, start uint16) bool {
		lat, st := int(latency%8)+1, int(stages%3)+1
		m := topology.NewMesh(2, 1, 1)
		cfg := DefaultConfig()
		cfg.LinkLatency, cfg.RouterStages = lat, st
		n := mustNet(t, cfg, m, topology.NewXY(m))
		t0 := sim.Cycle(start)
		due := t0 + sim.Cycle(lat+st-1)
		h := n.take(&Packet{Size: 1})
		n.at(t0).sendFlit(linkEnd, linkFlit{ref: h | tailBit})
		for c := t0; c < due; c++ {
			if _, ok := n.at(c).recvFlit(int(linkEnd.slot)); ok {
				return false // taken in early
			}
		}
		got, ok := n.at(due).recvFlit(int(linkEnd.slot))
		if !ok || got.ref != h|tailBit {
			return false
		}
		// Gone after receipt.
		_, again := n.recvFlit(int(linkEnd.slot))
		return !again && n.linkFlits[int(linkEnd.slot)*n.flitRing+n.rxFlit].ref == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestLinkCreditRoundTrip(t *testing.T) {
	n := fifoNet(t, 4, 1, 2)
	n.at(10).sendCredit(linkEnd, 3)
	if _, ok := n.at(11).recvCredit(int(linkEnd.slot)); ok {
		t.Fatal("credit arrived early")
	}
	vc, ok := n.at(12).recvCredit(int(linkEnd.slot))
	if !ok || vc != 3 {
		t.Fatalf("credit = %d, %v", vc, ok)
	}
}

// A flit ring is LinkLatency + RouterStages slots long: a second send
// that many cycles after the first, with no take-in between, lands in
// the same slot.
func TestLinkCollisionPanics(t *testing.T) {
	n := fifoNet(t, 4, 1, 1)
	n.at(0).sendFlit(linkEnd, linkFlit{ref: n.take(&Packet{Size: 1}) | tailBit})
	defer func() {
		if recover() == nil {
			t.Fatal("slot collision should panic")
		}
	}()
	n.at(sim.Cycle(n.cfg.LinkLatency+n.cfg.RouterStages)).sendFlit(linkEnd, linkFlit{ref: n.take(&Packet{Size: 1}) | tailBit})
}

// The client's payload is a kind byte beside Class and two words, so
// a packet is 96 bytes: the size packet memory and the free list are
// tuned around.
func TestPacketSize(t *testing.T) {
	if got := unsafe.Sizeof(Packet{}); got != 96 {
		t.Errorf("Packet is %d bytes, want 96", got)
	}
}

// TestFlitFootprint pins the flit records the buffers and link rings
// are made of: a buffer entry of at most 16 bytes and a link flit of at
// most 12, neither holding a pointer, so the collector never scans the
// router's flit arrays.
func TestFlitFootprint(t *testing.T) {
	for _, rec := range []struct {
		v   any
		max uintptr
	}{{flitEntry{}, 16}, {linkFlit{}, 12}} {
		typ := reflect.TypeOf(rec.v)
		if hasPointers(typ) {
			t.Errorf("%v holds pointers", typ)
		}
		if typ.Size() > rec.max {
			t.Errorf("%v is %d bytes, want at most %d", typ, typ.Size(), rec.max)
		}
	}
}

// hasPointers reports whether a value of type t holds any pointer the
// collector would scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Pointer, reflect.Slice, reflect.Map, reflect.String, reflect.Interface,
		reflect.Chan, reflect.Func, reflect.UnsafePointer:
		return true
	}
	return false
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
