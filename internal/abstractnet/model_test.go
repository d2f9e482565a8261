package abstractnet

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

func mesh8() *topology.Mesh { return topology.NewMesh(8, 8, 1) }

func TestFixedLatencyComposition(t *testing.T) {
	m := mesh8()
	p := DefaultParams()
	f := NewFixed(m, p)
	// Corner to corner: 14 links + 1 = 15 router traversals.
	hops := float64(m.MinHops(0, 63) + 1)
	want := p.InjectOverhead + hops*(p.RouterCycles+p.LinkCycles) + 4
	if got := f.Latency(0, 63, 5, 0); !almostEq(got, want) {
		t.Errorf("latency = %v, want %v", got, want)
	}
	// Single-flit same-router pair has no serialization term.
	if got := f.Latency(0, 0, 1, 0); got != p.InjectOverhead+1*(p.RouterCycles+p.LinkCycles) {
		t.Errorf("local latency = %v", got)
	}
}

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

// Property: fixed latency is monotone in distance and in packet size.
func TestFixedMonotonicity(t *testing.T) {
	m := mesh8()
	f := NewFixed(m, DefaultParams())
	ck := func(srcA, dstA, srcB, dstB uint8) bool {
		a := int(srcA) % 64
		b := int(dstA) % 64
		c := int(srcB) % 64
		d := int(dstB) % 64
		la := f.Latency(a, b, 1, 0)
		lb := f.Latency(c, d, 1, 0)
		if m.MinHops(a, b) < m.MinHops(c, d) && la >= lb {
			return false
		}
		return f.Latency(a, b, 5, 0) > f.Latency(a, b, 1, 0)
	}
	if err := quick.Check(ck, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestContentionRisesWithLoad(t *testing.T) {
	m := mesh8()
	p := DefaultParams()
	c := NewContention(m, p)
	base := c.Latency(0, 63, 5, 0)
	// Offer heavy traffic on the same path across several windows.
	now := sim.Cycle(0)
	for w := 0; w < 20; w++ {
		for i := 0; i < 60; i++ {
			c.Latency(0, 63, 5, now)
		}
		now += sim.Cycle(p.Window)
		c.AdvanceTo(now)
	}
	loaded := c.Latency(0, 63, 5, now)
	if loaded <= base {
		t.Errorf("contention model did not rise with load: %v -> %v", base, loaded)
	}
	// An unrelated, disjoint path stays near zero-load.
	quiet := c.Latency(7, 6, 5, now) // single hop far from the 0->63 path? (7->6 is on row 0 westbound)
	zero := NewFixed(m, p).Latency(7, 6, 5, 0)
	if quiet > zero*2 {
		t.Errorf("disjoint path charged too much contention: %v vs %v", quiet, zero)
	}
}

func TestContentionFallbackForNonGrid(t *testing.T) {
	// A non-grid topology falls back to the fixed model.
	if m := NewContention(fakeTopo{}, DefaultParams()); m.Name() != "fixed" {
		t.Errorf("expected fixed fallback, got %s", m.Name())
	}
}

type fakeTopo struct{}

func (fakeTopo) Name() string                   { return "fake" }
func (fakeTopo) NumRouters() int                { return 1 }
func (fakeTopo) NumTerminals() int              { return 1 }
func (fakeTopo) RouterOf(int) (int, int)        { return 0, 0 }
func (fakeTopo) TerminalAt(int, int) int        { return 0 }
func (fakeTopo) LocalPorts() int                { return 1 }
func (fakeTopo) Ports() int                     { return 1 }
func (fakeTopo) Link(int, int) (int, int, bool) { return 0, 0, false }
func (fakeTopo) MinHops(int, int) int           { return 0 }

func TestTunedRetuneFitsAffine(t *testing.T) {
	m := mesh8()
	tuned := NewTuned(NewFixed(m, DefaultParams()), 64)
	// Observations follow observed = 2*pred + 10 exactly.
	for pred := 10.0; pred <= 50; pred += 2 {
		tuned.Fit().Observe(pred, 2*pred+10)
	}
	tuned.Fit().Retune()
	a, b := tuned.Fit().Coeffs()
	if !almostEq(a, 2) || !almostEq(b, 10) {
		t.Errorf("fit = %v, %v; want 2, 10", a, b)
	}
	base := tuned.Base.Latency(0, 63, 1, 0)
	if got := tuned.Latency(0, 63, 1, 0); !almostEq(got, 2*base+10) {
		t.Errorf("tuned latency = %v", got)
	}
}

func TestTunedDegenerateWindow(t *testing.T) {
	tuned := NewTuned(NewFixed(mesh8(), DefaultParams()), 64)
	// Constant predictions: slope is unidentifiable; fall back to
	// offset-only correction.
	for i := 0; i < 10; i++ {
		tuned.Fit().Observe(20, 35)
	}
	tuned.Fit().Retune()
	a, b := tuned.Fit().Coeffs()
	if !almostEq(a, 1) || !almostEq(b, 15) {
		t.Errorf("degenerate fit = %v, %v; want 1, 15", a, b)
	}
}

func TestTunedWindowSliding(t *testing.T) {
	tuned := NewTuned(NewFixed(mesh8(), DefaultParams()), 16)
	for i := 0; i < 100; i++ {
		tuned.Fit().Observe(float64(i), float64(i))
	}
	if tuned.Fit().ObservationCount() != 16 {
		t.Errorf("window size = %d, want 16", tuned.Fit().ObservationCount())
	}
}

func TestTunedGuardsAgainstWildFits(t *testing.T) {
	tuned := NewTuned(NewFixed(mesh8(), DefaultParams()), 64)
	// A pathological window that would fit a negative slope.
	tuned.Fit().Observe(10, 1000)
	tuned.Fit().Observe(10.0001, 1)
	tuned.Fit().Retune()
	a, _ := tuned.Fit().Coeffs()
	if a < 0.1 || a > 10 {
		t.Errorf("guard failed: alpha = %v", a)
	}
}

func TestAbstractNetworkSerialization(t *testing.T) {
	m := mesh8()
	net := NewNetwork(NewFixed(m, DefaultParams()))
	// Two back-to-back packets from the same source: the second starts
	// after the first finishes serializing (5 cycles).
	p1 := &noc.Packet{Src: 0, Dst: 63, Size: 5}
	p2 := &noc.Packet{Src: 0, Dst: 63, Size: 5}
	net.Inject(p1, 10)
	net.Inject(p2, 10)
	if p1.InjectedAt != 10 || p2.InjectedAt != 15 {
		t.Errorf("serialization: %v, %v", p1.InjectedAt, p2.InjectedAt)
	}
	if p2.DeliveredAt <= p1.DeliveredAt {
		t.Error("second packet should deliver later")
	}
	net.AdvanceTo(p2.DeliveredAt)
	got := net.Drain()
	if len(got) != 2 || got[0] != p1 || got[1] != p2 {
		t.Fatalf("drain order: %v", got)
	}
	if !net.Quiescent() || net.InFlight() != 0 {
		t.Error("network should be quiescent")
	}
	if net.Tracker().Count() != 2 {
		t.Error("stats not recorded")
	}
}

func TestAbstractNetworkDrainTiming(t *testing.T) {
	net := NewNetwork(NewFixed(mesh8(), DefaultParams()))
	p := &noc.Packet{Src: 0, Dst: 63, Size: 1}
	net.Inject(p, 0)
	net.AdvanceTo(p.DeliveredAt - 1)
	if got := net.Drain(); len(got) != 0 {
		t.Fatal("drained before delivery time")
	}
	net.AdvanceTo(p.DeliveredAt)
	if got := net.Drain(); len(got) != 1 {
		t.Fatal("not drained at delivery time")
	}
}

// TestAbstractNetworkSteadyStateAllocs: once the free list, the
// delivery queue's buckets and the drain buffer have grown to the
// traffic's shape, a message's whole life — NewPacket, Inject,
// AdvanceTo, Drain, Recycle — allocates nothing.
func TestAbstractNetworkSteadyStateAllocs(t *testing.T) {
	if sim.Checking {
		t.Skip("simcheck build: the queue recount's failure paths box their arguments")
	}
	net := NewNetwork(NewContention(mesh8(), DefaultParams()))
	now := sim.Cycle(0)
	cycle := func() {
		for i := 0; i < 3; i++ {
			p := net.NewPacket()
			p.Src, p.Dst, p.Size = (int(now)+i)%64, (int(now)+17*i+5)%64, 1+4*(i&1)
			net.Inject(p, now)
		}
		now++
		net.AdvanceTo(now)
		for _, p := range net.Drain() {
			net.Recycle(p)
		}
	}
	for i := 0; i < 2000; i++ {
		cycle()
	}
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Fatalf("steady-state message path allocates %v per cycle, want 0", a)
	}
}

// TestRecycledPacketIsReused: Recycle feeds NewPacket, zeroed.
func TestRecycledPacketIsReused(t *testing.T) {
	net := NewNetwork(NewFixed(mesh8(), DefaultParams()))
	p := net.NewPacket()
	p.Src, p.Dst, p.Size = 1, 2, 5
	net.Inject(p, 0)
	net.AdvanceTo(p.DeliveredAt)
	if got := net.Drain(); len(got) != 1 || got[0] != p {
		t.Fatalf("drain: %v", got)
	}
	net.Recycle(p)
	if q := net.NewPacket(); q != p || *q != (noc.Packet{}) {
		t.Fatalf("NewPacket after Recycle = %p %+v, want the recycled %p zeroed", q, *q, p)
	}
}

// TestRestoreRejectsSourceOutsideTopology: a checkpoint can name only
// the sources of the topology it is restored over, whatever the id.
func TestRestoreRejectsSourceOutsideTopology(t *testing.T) {
	big := NewNetwork(NewFixed(mesh8(), DefaultParams()))
	big.Inject(&noc.Packet{Src: 63, Dst: 0, Size: 1}, 0)
	blob, _ := snapshot.Seal(0, func(c *snapshot.Codec) error { big.State(c, nil); return nil })

	for _, tc := range []struct {
		side int
		ok   bool
	}{{8, true}, {4, false}} {
		small := NewNetwork(NewFixed(topology.NewMesh(tc.side, tc.side, 1), DefaultParams()))
		err := snapshot.Open(blob, 0, func(c *snapshot.Codec) error { small.State(c, nil); return nil })
		if (err == nil) != tc.ok {
			t.Errorf("%dx%d mesh: restore error %v, want ok=%v", tc.side, tc.side, err, tc.ok)
		}
		if len(small.srcFree) != tc.side*tc.side {
			t.Errorf("%dx%d mesh: %d source horizons, want one per terminal", tc.side, tc.side, len(small.srcFree))
		}
	}
}
