package noc

import (
	"strings"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/stats"
)

func mustNet(t *testing.T, cfg Config, topo topology.Topology, routing topology.Routing, opts ...Option) *Network {
	t.Helper()
	n, err := New(cfg, topo, routing, opts...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	t.Cleanup(n.Close)
	return n
}

func mesh4(t *testing.T) (*Network, *topology.Mesh) {
	m := topology.NewMesh(4, 4, 1)
	return mustNet(t, DefaultConfig(), m, topology.NewXY(m)), m
}

// runUntilDelivered steps until cnt packets have drained or the cycle
// limit is hit, returning the drained packets.
func runUntilDelivered(t *testing.T, n *Network, cnt, limit int) []*Packet {
	t.Helper()
	var got []*Packet
	for i := 0; i < limit; i++ {
		n.Step()
		got = append(got, n.Drain()...)
		if len(got) >= cnt {
			return got
		}
	}
	t.Fatalf("only %d of %d packets delivered within %d cycles", len(got), cnt, limit)
	return nil
}

func TestSinglePacketTraversal(t *testing.T) {
	n, _ := mesh4(t)
	p := &Packet{Src: 0, Dst: 15, VNet: 0, Size: 5}
	n.Inject(p, 0)
	got := runUntilDelivered(t, n, 1, 200)
	if got[0] != p {
		t.Fatalf("delivered wrong packet: %v", got[0])
	}
	if p.Hops != 7 {
		t.Errorf("corner-to-corner on 4x4 should traverse 7 routers, got %d", p.Hops)
	}
	if p.InjectedAt != 0 {
		t.Errorf("head should inject at cycle 0, got %v", p.InjectedAt)
	}
	// Zero-load latency: per router (stages-1)+link, serialized tail.
	cfg := n.Cfg()
	perHop := sim.Cycle(cfg.RouterStages - 1 + cfg.LinkLatency)
	minLat := 7*perHop + sim.Cycle(p.Size-1)
	if p.NetworkLatency() < minLat {
		t.Errorf("network latency %d below physical minimum %d", p.NetworkLatency(), minLat)
	}
	if p.NetworkLatency() > minLat+4 {
		t.Errorf("zero-load latency %d far above minimum %d", p.NetworkLatency(), minLat)
	}
}

func TestSameRouterDelivery(t *testing.T) {
	m := topology.NewMesh(2, 2, 2) // two terminals per router
	n := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	p := &Packet{Src: 0, Dst: 1, VNet: 0, Size: 1}
	n.Inject(p, 0)
	got := runUntilDelivered(t, n, 1, 50)
	if got[0].Hops != 1 {
		t.Errorf("same-router delivery should count 1 hop, got %d", got[0].Hops)
	}
}

func TestAllPairsDelivery(t *testing.T) {
	n, _ := mesh4(t)
	want := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			n.Inject(&Packet{Src: s, Dst: d, VNet: (s + d) % 3, Size: 1 + (s+d)%5}, 0)
			want++
		}
	}
	got := runUntilDelivered(t, n, want, 5000)
	if len(got) != want {
		t.Fatalf("delivered %d of %d", len(got), want)
	}
	seen := make(map[uint64]bool)
	for _, p := range got {
		if seen[p.ID] {
			t.Fatalf("packet %d delivered twice", p.ID)
		}
		seen[p.ID] = true
		minHops := n.Topology().MinHops(p.Src, p.Dst) + 1
		if p.Hops != minHops {
			t.Errorf("pkt %d->%d hops %d want %d (XY is minimal)", p.Src, p.Dst, p.Hops, minHops)
		}
	}
	if !n.Quiescent() {
		t.Error("network not quiescent after all deliveries drained")
	}
}

func TestFlitOrderingWithinPacket(t *testing.T) {
	// Deliveries imply in-order reassembly; this test instead checks
	// that heavy multi-packet traffic between the same pair never
	// corrupts wormhole ordering (the buffer invariants panic if a
	// non-head flit surfaces where a head is required).
	n, _ := mesh4(t)
	for i := 0; i < 50; i++ {
		n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 5}, sim.Cycle(i))
	}
	got := runUntilDelivered(t, n, 50, 3000)
	// Same src/dst/vnet packets must be delivered in injection order
	// (single path, single class).
	for i := 1; i < len(got); i++ {
		if got[i].ID < got[i-1].ID {
			t.Fatalf("out-of-order delivery: %d before %d", got[i-1].ID, got[i].ID)
		}
	}
}

func TestBackpressureLimitsBuffering(t *testing.T) {
	n, _ := mesh4(t)
	// Flood one destination from all terminals; buffers must never
	// exceed their credit-bounded capacity (push panics on overflow).
	for i := 0; i < 200; i++ {
		for s := 0; s < 16; s++ {
			if s == 5 {
				continue
			}
			n.Inject(&Packet{Src: s, Dst: 5, VNet: 0, Size: 5}, sim.Cycle(i*2))
		}
	}
	cfg := n.Cfg()
	capPerVC := cfg.BufDepth
	maxFlits := 16 * 5 * cfg.TotalVCs() * capPerVC // routers*ports*vcs*depth
	for i := 0; i < 2000; i++ {
		n.Step()
		n.Drain()
		if b := n.BufferedFlits(); b > maxFlits {
			t.Fatalf("buffered flits %d exceed capacity %d", b, maxFlits)
		}
	}
}

// TestBackloggedQueueStaysBounded: an injection queue that is fed as
// fast as it drains never empties, so it must reclaim its consumed
// prefix on the way — its storage tracks the backlog, not the total
// ever enqueued.
func TestBackloggedQueueStaysBounded(t *testing.T) {
	n, _ := mesh4(t)
	const backlog = 64
	sent, got := 0, 0
	for ; sent < backlog; sent++ {
		n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, 0)
	}
	for got < 4000 {
		n.Step()
		for range n.Drain() {
			got++
			n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, n.Cycle())
			sent++
		}
		if n.ifaces[0].pending() == 0 {
			t.Fatal("queue drained; the test needs a standing backlog")
		}
	}
	if c := cap(n.ifaces[0].queues[0]); c > 4*backlog {
		t.Errorf("queue storage grew to %d slots for a backlog of at most %d (%d packets sent)", c, backlog, sent)
	}
}

func TestVNetIsolationUnderLoad(t *testing.T) {
	// Saturate vnet 0; vnet 2 packets must still make progress at a
	// zero-load-like latency because VCs are partitioned.
	n, _ := mesh4(t)
	for i := 0; i < 400; i++ {
		for s := 0; s < 16; s++ {
			n.Inject(&Packet{Src: s, Dst: (s + 7) % 16, VNet: 0, Size: 5, Class: stats.ClassRequest}, sim.Cycle(i))
		}
	}
	probe := &Packet{Src: 0, Dst: 15, VNet: 2, Size: 1, Class: stats.ClassControl}
	n.Inject(probe, 100)
	for i := 0; i < 3000 && probe.DeliveredAt == 0; i++ {
		n.Step()
		n.Drain()
	}
	if probe.DeliveredAt == 0 {
		t.Fatal("probe packet starved behind saturated vnet 0")
	}
	if lat := probe.NetworkLatency(); lat > 60 {
		t.Errorf("probe latency %d too high for an isolated vnet", lat)
	}
}

func TestTorusDatelineDeadlockFree(t *testing.T) {
	// Adversarial ring traffic on a torus exercises wraparound links;
	// with the dateline discipline everything must drain.
	tor := topology.NewTorus(4, 4, 1)
	n := mustNet(t, DefaultConfig(), tor, topology.NewTorusDOR(tor))
	want := 0
	for i := 0; i < 100; i++ {
		for s := 0; s < 16; s++ {
			n.Inject(&Packet{Src: s, Dst: (s + 8) % 16, VNet: s % 3, Size: 3}, sim.Cycle(i))
			want++
		}
	}
	runUntilDelivered(t, n, want, 20000)
}

func TestOddEvenAdaptiveDelivers(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	n := mustNet(t, DefaultConfig(), m, topology.NewOddEven(m))
	want := 0
	for i := 0; i < 100; i++ {
		for s := 0; s < 16; s++ {
			n.Inject(&Packet{Src: s, Dst: 15 - s, VNet: 0, Size: 3}, sim.Cycle(i))
			want++
		}
	}
	got := runUntilDelivered(t, n, want, 20000)
	for _, p := range got {
		if p.Src == p.Dst {
			continue
		}
		minHops := n.Topology().MinHops(p.Src, p.Dst) + 1
		if p.Hops != minHops {
			t.Errorf("odd-even is minimal: %d->%d hops %d want %d", p.Src, p.Dst, p.Hops, minHops)
		}
	}
}

func TestInjectValidation(t *testing.T) {
	n, _ := mesh4(t)
	cases := []*Packet{
		{Src: 0, Dst: 1, VNet: 0, Size: 0},
		{Src: 0, Dst: 1, VNet: 9, Size: 1},
		{Src: -1, Dst: 1, VNet: 0, Size: 1},
		{Src: 0, Dst: 99, VNet: 0, Size: 1},
	}
	for _, p := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject(%+v) should panic", p)
				}
			}()
			n.Inject(p, 0)
		}()
	}
}

func TestLatencyStatsRecorded(t *testing.T) {
	n, _ := mesh4(t)
	n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 5, Class: stats.ClassResponse}, 0)
	runUntilDelivered(t, n, 1, 200)
	tr := n.Tracker()
	if tr.Count() != 1 {
		t.Fatalf("tracker count %d", tr.Count())
	}
	if tr.ClassCount(stats.ClassResponse) != 1 {
		t.Error("class latency not recorded")
	}
	if tr.Mean() <= 0 || tr.MeanHops() != 7 {
		t.Errorf("stats wrong: mean=%v hops=%v", tr.Mean(), tr.MeanHops())
	}
}

func TestConfigValidation(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	xy := topology.NewXY(m)
	bad := []Config{
		{VNets: 0, VCsPerVNet: 2, BufDepth: 4, LinkLatency: 1, CreditLatency: 1, RouterStages: 2},
		{VNets: 3, VCsPerVNet: 0, BufDepth: 4, LinkLatency: 1, CreditLatency: 1, RouterStages: 2},
		{VNets: 3, VCsPerVNet: 2, BufDepth: 0, LinkLatency: 1, CreditLatency: 1, RouterStages: 2},
		{VNets: 3, VCsPerVNet: 2, BufDepth: 4, LinkLatency: 0, CreditLatency: 1, RouterStages: 2},
		{VNets: 3, VCsPerVNet: 2, BufDepth: 4, LinkLatency: 1, CreditLatency: 0, RouterStages: 2},
		{VNets: 3, VCsPerVNet: 2, BufDepth: 4, LinkLatency: 1, CreditLatency: 1, RouterStages: 0},
	}
	for i, cfg := range bad {
		if _, err := New(cfg, m, xy); err == nil {
			t.Errorf("config %d should be rejected", i)
		}
	}
	tor := topology.NewTorus(4, 4, 1)
	dor := topology.NewTorusDOR(tor)
	odd := Config{VNets: 3, VCsPerVNet: 3, BufDepth: 4, LinkLatency: 1, CreditLatency: 1, RouterStages: 2}
	if _, err := New(odd, tor, dor); err == nil {
		t.Error("VCsPerVNet not divisible by VC sets should be rejected")
	}
}

// fiveWay is XY routing that declares five choices per route.
type fiveWay struct{ *topology.XY }

func (fiveWay) MaxChoices() int { return 5 }

// TestVCAndPortWidthLimits: a port's VCs are a field of one mask word
// and the switch arbiters' port sets are one word per router, so 64 VCs
// per port and 64 ports per router are the widest shapes accepted — and
// together they do run, on 64 mask words per router; one more of either
// is rejected with the limit in the message, and so is a routing
// function declaring more next hops than the per-VC route cache holds.
func TestVCAndPortWidthLimits(t *testing.T) {
	m := topology.NewMesh(2, 2, 1)
	cfg := DefaultConfig()
	cfg.VNets, cfg.VCsPerVNet = 5, 13
	if err := cfg.Validate(topology.NewXY(m)); err == nil || !strings.Contains(err.Error(), "65 VCs") || !strings.Contains(err.Error(), "limit 64") {
		t.Errorf("65 VCs per port: got error %v, want a rejection naming the limit of 64", err)
	}
	wide := topology.NewMesh(2, 1, 61)
	if _, err := New(DefaultConfig(), wide, topology.NewXY(wide)); err == nil || !strings.Contains(err.Error(), "limit 64") {
		t.Errorf("65 ports per router: got error %v, want a rejection naming the limit of 64", err)
	}
	if _, err := New(DefaultConfig(), m, fiveWay{topology.NewXY(m)}); err == nil || !strings.Contains(err.Error(), "5 next hops") || !strings.Contains(err.Error(), "limit 4") {
		t.Errorf("5 routing choices: got error %v, want a rejection naming the limit of 4", err)
	}

	m = topology.NewMesh(2, 1, 60) // 64 ports
	cfg.VNets, cfg.VCsPerVNet = 4, 16
	n := mustNet(t, cfg, m, topology.NewXY(m))
	if n.mw != 64 {
		t.Fatalf("64 ports of 64 VCs take %d mask words per router, want 64", n.mw)
	}
	last := m.NumTerminals() - 1
	n.Inject(&Packet{Src: 0, Dst: last, VNet: 3, Size: 3}, 0)
	n.Inject(&Packet{Src: last, Dst: 59, VNet: 3, Size: 3}, 0)
	runUntilDelivered(t, n, 2, 200)
}

func TestMultiFlitSerializationLatency(t *testing.T) {
	// A long packet's tail should trail its head by exactly size-1
	// cycles at zero load (full-rate pipelining).
	n, _ := mesh4(t)
	short := &Packet{Src: 0, Dst: 3, VNet: 0, Size: 1}
	n.Inject(short, 0)
	runUntilDelivered(t, n, 1, 100)
	long := &Packet{Src: 0, Dst: 3, VNet: 0, Size: 9}
	n.Inject(long, n.Cycle())
	for long.DeliveredAt == 0 {
		n.Step()
		n.Drain()
	}
	diff := int64(long.NetworkLatency()) - int64(short.NetworkLatency())
	if diff != 8 {
		t.Errorf("9-flit packet should add exactly 8 cycles at zero load, added %d", diff)
	}
}
