package noc

import (
	"fmt"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

func deflMesh(t *testing.T, side int, opts ...DeflectOption) *Deflection {
	t.Helper()
	m := topology.NewMesh(side, side, 1)
	n, err := NewDeflection(DefaultDeflectConfig(), m, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	return n
}

func deflRunUntil(t *testing.T, n *Deflection, count, limit int) []*Packet {
	t.Helper()
	var got []*Packet
	for i := 0; i < limit; i++ {
		n.Step()
		got = append(got, n.Drain()...)
		if len(got) >= count {
			return got
		}
	}
	t.Fatalf("only %d of %d packets delivered in %d cycles", len(got), count, limit)
	return nil
}

func TestDeflectionSinglePacket(t *testing.T) {
	n := deflMesh(t, 4)
	p := &Packet{Src: 0, Dst: 15, Size: 5}
	n.Inject(p, 0)
	deflRunUntil(t, n, 1, 200)
	// Zero load: no deflections, flit hops = 5 flits × 6 links.
	if n.Deflections() != 0 {
		t.Errorf("unexpected deflections at zero load: %d", n.Deflections())
	}
	if n.FlitHops() != 30 {
		t.Errorf("flit hops = %d, want 30", n.FlitHops())
	}
	if !n.Quiescent() {
		t.Error("not quiescent after delivery")
	}
}

func TestDeflectionSameRouterDelivery(t *testing.T) {
	n := deflMesh(t, 4)
	p := &Packet{Src: 3, Dst: 3, Size: 1}
	n.Inject(p, 0)
	deflRunUntil(t, n, 1, 50)
	if n.FlitHops() != 0 {
		t.Errorf("self delivery should not traverse links, hops=%d", n.FlitHops())
	}
}

func TestDeflectionAllPairs(t *testing.T) {
	n := deflMesh(t, 4)
	want := 0
	for s := 0; s < 16; s++ {
		for d := 0; d < 16; d++ {
			if s == d {
				continue
			}
			n.Inject(&Packet{Src: s, Dst: d, Size: 1 + (s+d)%4}, 0)
			want++
		}
	}
	got := deflRunUntil(t, n, want, 50000)
	seen := map[uint64]bool{}
	for _, p := range got {
		if seen[p.ID] {
			t.Fatalf("packet %d delivered twice", p.ID)
		}
		seen[p.ID] = true
	}
	if len(got) != want || !n.Quiescent() {
		t.Fatalf("delivered %d/%d quiescent=%v", len(got), want, n.Quiescent())
	}
}

func TestDeflectionHighLoadDrains(t *testing.T) {
	// Saturating a bufferless mesh forces deflections; oldest-first
	// priority must still drain everything (livelock freedom).
	n := deflMesh(t, 4)
	rng := sim.NewRNG(5, 1)
	want := 0
	for cyc := 0; cyc < 300; cyc++ {
		for s := 0; s < 16; s++ {
			if rng.Bernoulli(0.4) {
				d := rng.Intn(15)
				if d >= s {
					d++
				}
				n.Inject(&Packet{Src: s, Dst: d, Size: 2}, sim.Cycle(cyc))
				want++
			}
		}
	}
	got := deflRunUntil(t, n, want, 200000)
	if len(got) != want {
		t.Fatalf("delivered %d/%d", len(got), want)
	}
	if n.Deflections() == 0 {
		t.Error("saturating load should cause deflections")
	}
	if rate := n.DeflectionRate(); rate <= 0 || rate >= 1 {
		t.Errorf("deflection rate %v out of (0,1)", rate)
	}
}

func TestDeflectionTorus(t *testing.T) {
	tor := topology.NewTorus(4, 4, 1)
	n, err := NewDeflection(DefaultDeflectConfig(), tor)
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	for s := 0; s < 16; s++ {
		n.Inject(&Packet{Src: s, Dst: (s + 8) % 16, Size: 3}, 0)
	}
	deflRunUntil(t, n, 16, 10000)
}

func TestDeflectionParallelBitIdentical(t *testing.T) {
	load := func(n *Deflection) string {
		rng := sim.NewRNG(9, 2)
		var sig string
		for cyc := 0; cyc < 200; cyc++ {
			for s := 0; s < 36; s++ {
				if rng.Bernoulli(0.25) {
					d := rng.Intn(35)
					if d >= s {
						d++
					}
					n.Inject(&Packet{Src: s, Dst: d, Size: 3}, n.Cycle())
				}
			}
			n.Step()
			for _, p := range n.Drain() {
				sig += fmt.Sprintf("[%d@%d]", p.ID, p.DeliveredAt)
			}
		}
		for i := 0; i < 50000 && !n.Quiescent(); i++ {
			n.Step()
			for _, p := range n.Drain() {
				sig += fmt.Sprintf("[%d@%d]", p.ID, p.DeliveredAt)
			}
		}
		sig += fmt.Sprintf("defl=%d hops=%d", n.Deflections(), n.FlitHops())
		return sig
	}
	m := topology.NewMesh(6, 6, 1)
	seq, err := NewDeflection(DefaultDeflectConfig(), m)
	if err != nil {
		t.Fatal(err)
	}
	defer seq.Close()
	want := load(seq)

	par, err := NewDeflection(DefaultDeflectConfig(), m, WithDeflectWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if got := load(par); got != want {
		t.Error("parallel deflection run diverged from sequential")
	}
}

func TestDeflectionRejectsBadConfigs(t *testing.T) {
	m := topology.NewMesh(2, 2, 2)
	if _, err := NewDeflection(DefaultDeflectConfig(), m); err == nil {
		t.Error("concentration > 1 should be rejected")
	}
	m1 := topology.NewMesh(4, 4, 1)
	if _, err := NewDeflection(DeflectConfig{EjectWidth: 0}, m1); err == nil {
		t.Error("zero eject width should be rejected")
	}
}

func TestDeflectionVsVCLatency(t *testing.T) {
	// At saturating load the bufferless network pays for deflections:
	// its mean latency should exceed the buffered VC router's.
	inject := func(adder func(*Packet, sim.Cycle)) int {
		rng := sim.NewRNG(13, 3)
		count := 0
		for cyc := 0; cyc < 400; cyc++ {
			for s := 0; s < 16; s++ {
				if rng.Bernoulli(0.35) {
					d := rng.Intn(15)
					if d >= s {
						d++
					}
					adder(&Packet{Src: s, Dst: d, VNet: 0, Size: 3}, sim.Cycle(cyc))
					count++
				}
			}
		}
		return count
	}

	vcNet, _ := mesh4(t)
	wantVC := inject(vcNet.Inject)
	runUntilDelivered(t, vcNet, wantVC, 300000)

	dNet := deflMesh(t, 4)
	wantD := inject(dNet.Inject)
	deflRunUntil(t, dNet, wantD, 300000)

	vcLat := vcNet.Tracker().Mean()
	dLat := dNet.Tracker().Mean()
	t.Logf("saturated 4x4: VC=%.1f deflection=%.1f (rate %.2f)", vcLat, dLat, dNet.DeflectionRate())
	if dLat <= vcLat {
		t.Errorf("bufferless should lose at saturation: defl=%.1f vc=%.1f", dLat, vcLat)
	}
}
