package noc

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// The activity-gating property: a gated run must be bit-identical to
// the exhaustive every-router-every-cycle sweep — same fingerprints,
// same checkpoint bytes — across traffic patterns and worker counts. The drivers below mimic the co-simulation quantum loop
// (future-dated injections, AdvanceTo to the boundary) so idle-cycle
// fast-forward is genuinely exercised.

// patternRate returns the per-terminal injection probability and
// destination for one (pattern, cycle, source) triple, consuming an
// identical RNG stream in gated and exhaustive runs.
func patternRate(rng *sim.RNG, pattern string, cyc, src, terms int) (float64, int) {
	dst := rng.Intn(terms - 1)
	if dst >= src {
		dst++
	}
	switch pattern {
	case "uniform":
		return 0.05, dst
	case "hotspot":
		if src != 0 && rng.Bernoulli(0.5) {
			dst = 0
		}
		return 0.05, dst
	case "bursty":
		// One quantum in four carries a heavy burst; the other three
		// are silent, which is what fast-forward exists for.
		if (cyc/64)%4 == 0 {
			return 0.4, dst
		}
		return 0, dst
	default:
		panic("unknown pattern " + pattern)
	}
}

// runGatingLoad drives a quantum-style load (8 quanta of 64 cycles,
// then drain) and returns the run fingerprint plus a mid-run and
// end-of-run snapshot blob.
func runGatingLoad(t *testing.T, n *Network, pattern string) (fp string, mid, end []byte) {
	t.Helper()
	terms := n.Topology().NumTerminals()
	rng := sim.NewRNG(7, 99)
	var delivered []*Packet
	const quantum = 64
	for q := 0; q < 8; q++ {
		if q == 4 {
			e := snapshot.NewEncoder(1)
			n.State(e.Codec(), nil, nil)
			mid = e.Finish()
		}
		base := n.Cycle()
		for c := 0; c < quantum; c++ {
			cyc := int(base) + c
			for s := 0; s < terms; s++ {
				rate, dst := patternRate(rng, pattern, cyc, s, terms)
				if !rng.Bernoulli(rate) {
					continue
				}
				size := 1
				if rng.Bernoulli(0.5) {
					size = 5
				}
				n.Inject(&Packet{Src: s, Dst: dst, VNet: rng.Intn(3), Size: size}, sim.Cycle(cyc))
			}
		}
		n.AdvanceTo(base + quantum)
		delivered = append(delivered, n.Drain()...)
	}
	for i := 0; i < 5000 && !n.Quiescent(); i++ {
		n.Step()
		delivered = append(delivered, n.Drain()...)
	}
	if !n.Quiescent() {
		t.Fatal("network failed to drain")
	}
	e := snapshot.NewEncoder(1)
	n.State(e.Codec(), nil, nil)
	return fingerprint(n, delivered), mid, e.Finish()
}

// gatingWorkerCounts are the worker counts the gating matrices run: the
// default one-shard network, an explicit 1, two multi-shard splits, and
// a count above the 36-router mesh (the shard clamp). The exhaustive
// reference is given the same option and must ignore it.
var gatingWorkerCounts = []int{0, 1, 2, 4, 64}

// TestGatingBitIdentical compares gated and exhaustive runs across
// traffic patterns and worker counts, on fingerprints and on
// mid-run/end-of-run checkpoint bytes.
func TestGatingBitIdentical(t *testing.T) {
	m := topology.NewMesh(6, 6, 1)
	for _, pattern := range []string{"uniform", "hotspot", "bursty"} {
		for _, w := range gatingWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", pattern, w), func(t *testing.T) {
				exCfg := DefaultConfig()
				exCfg.DisableGating = true
				ex := mustNet(t, exCfg, m, topology.NewXY(m), WithWorkers(w))
				wantFP, wantMid, wantEnd := runGatingLoad(t, ex, pattern)

				g := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(w))
				gotFP, gotMid, gotEnd := runGatingLoad(t, g, pattern)

				if gotFP != wantFP {
					t.Errorf("gated run diverged from exhaustive\nexh: %.160s\ngat: %.160s", wantFP, gotFP)
				}
				if !bytes.Equal(gotMid, wantMid) {
					t.Error("mid-run checkpoint bytes differ between gated and exhaustive runs")
				}
				if !bytes.Equal(gotEnd, wantEnd) {
					t.Error("end-of-run checkpoint bytes differ between gated and exhaustive runs")
				}
				if pattern == "bursty" && g.ActivityStats().Skipped == 0 {
					t.Error("bursty load fast-forwarded nothing; gating is not engaging")
				}
			})
		}
	}
}

// deflFingerprint summarizes a deflection run's observable outcome.
func deflFingerprint(n *Deflection, pkts []*Packet) string {
	s := fmt.Sprintf("hops=%d defl=%d flits=%d ", n.FlitHops(), n.Deflections(), n.FlitsSwitched())
	for _, p := range pkts {
		s += fmt.Sprintf("[%d:%d@%d h%d]", p.ID, p.Dst, p.DeliveredAt, p.Hops)
	}
	return s
}

// runDeflGatingLoad is the deflection twin of runGatingLoad.
func runDeflGatingLoad(t *testing.T, n *Deflection, pattern string) (fp string, mid, end []byte) {
	t.Helper()
	terms := n.topo.NumTerminals()
	rng := sim.NewRNG(7, 99)
	var delivered []*Packet
	const quantum = 64
	for q := 0; q < 8; q++ {
		if q == 4 {
			e := snapshot.NewEncoder(1)
			n.State(e.Codec(), nil, nil)
			mid = e.Finish()
		}
		base := n.Cycle()
		for c := 0; c < quantum; c++ {
			cyc := int(base) + c
			for s := 0; s < terms; s++ {
				rate, dst := patternRate(rng, pattern, cyc, s, terms)
				if !rng.Bernoulli(rate) {
					continue
				}
				size := 1
				if rng.Bernoulli(0.5) {
					size = 3
				}
				n.Inject(&Packet{Src: s, Dst: dst, Size: size}, sim.Cycle(cyc))
			}
		}
		n.AdvanceTo(base + quantum)
		delivered = append(delivered, n.Drain()...)
	}
	for i := 0; i < 5000 && !n.Quiescent(); i++ {
		n.Step()
		delivered = append(delivered, n.Drain()...)
	}
	if !n.Quiescent() {
		t.Fatal("deflection network failed to drain")
	}
	e := snapshot.NewEncoder(1)
	n.State(e.Codec(), nil, nil)
	return deflFingerprint(n, delivered), mid, e.Finish()
}

// TestDeflectionGatingBitIdentical is the deflection-router twin of
// TestGatingBitIdentical.
func TestDeflectionGatingBitIdentical(t *testing.T) {
	mk := func(disable bool, opts ...DeflectOption) *Deflection {
		m := topology.NewMesh(6, 6, 1)
		cfg := DefaultDeflectConfig()
		cfg.DisableGating = disable
		n, err := NewDeflection(cfg, m, opts...)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(n.Close)
		return n
	}
	for _, pattern := range []string{"uniform", "hotspot", "bursty"} {
		for _, w := range gatingWorkerCounts {
			t.Run(fmt.Sprintf("%s/w%d", pattern, w), func(t *testing.T) {
				ex := mk(true, WithDeflectWorkers(w))
				wantFP, wantMid, wantEnd := runDeflGatingLoad(t, ex, pattern)

				g := mk(false, WithDeflectWorkers(w))
				gotFP, gotMid, gotEnd := runDeflGatingLoad(t, g, pattern)

				if gotFP != wantFP {
					t.Errorf("gated deflection run diverged from exhaustive\nexh: %.160s\ngat: %.160s", wantFP, gotFP)
				}
				if !bytes.Equal(gotMid, wantMid) {
					t.Error("mid-run checkpoint bytes differ between gated and exhaustive runs")
				}
				if !bytes.Equal(gotEnd, wantEnd) {
					t.Error("end-of-run checkpoint bytes differ between gated and exhaustive runs")
				}
			})
		}
	}
}

// TestGatingRestoreBitIdentical checks that gating survives
// checkpoint/restore: restore a mid-run gated snapshot (with flits and
// credits in flight on the links) into a fresh gated network and into a
// fresh exhaustive network, and require both continuations to match
// the uninterrupted exhaustive run.
func TestGatingRestoreBitIdentical(t *testing.T) {
	m := topology.NewMesh(5, 5, 1)
	load := func(n *Network) {
		rng := sim.NewRNG(11, 5)
		for cyc := 0; cyc < 40; cyc++ {
			for s := 0; s < 25; s++ {
				if rng.Bernoulli(0.15) {
					d := rng.Intn(24)
					if d >= s {
						d++
					}
					n.Inject(&Packet{Src: s, Dst: d, VNet: rng.Intn(3), Size: 4}, n.Cycle())
				}
			}
			n.Step()
			n.Drain()
		}
	}
	finish := func(t *testing.T, n *Network) string {
		t.Helper()
		var delivered []*Packet
		for i := 0; i < 5000 && !n.Quiescent(); i++ {
			n.Step()
			delivered = append(delivered, n.Drain()...)
		}
		if !n.Quiescent() {
			t.Fatal("network failed to drain")
		}
		return fingerprint(n, delivered)
	}

	exCfg := DefaultConfig()
	exCfg.DisableGating = true
	ref := mustNet(t, exCfg, m, topology.NewXY(m))
	load(ref)
	want := finish(t, ref)

	src := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	load(src)
	e := snapshot.NewEncoder(1)
	src.State(e.Codec(), nil, nil)
	blob := e.Finish()

	for _, gated := range []bool{true, false} {
		cfg := DefaultConfig()
		cfg.DisableGating = !gated
		n := mustNet(t, cfg, m, topology.NewXY(m))
		d, err := snapshot.NewDecoder(blob, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n.State(d.Codec(), nil, nil); d.Err() != nil {
			t.Fatal(d.Err())
		}
		if got := finish(t, n); got != want {
			t.Errorf("restored run (gated=%v) diverged from uninterrupted exhaustive run", gated)
		}
	}
}

// TestFastForwardStopsAtBoundsAndEvents pins the fast-forward clamps:
// the clock never jumps past the AdvanceTo bound, and never past a
// scheduled future injection.
func TestFastForwardStopsAtBoundsAndEvents(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	n := mustNet(t, DefaultConfig(), m, topology.NewXY(m))

	// Fresh network: the conservative initial wake sweeps once, then
	// everything retires and the schedule is empty.
	n.AdvanceTo(100)
	if n.Cycle() != 100 {
		t.Fatalf("AdvanceTo(100) left the clock at %d", n.Cycle())
	}
	if _, ok := n.NextEventCycle(); ok {
		t.Fatal("idle network still reports a pending event")
	}
	if n.ActivityStats().Skipped == 0 {
		t.Fatal("idle advance skipped no cycles")
	}

	// A future-dated injection becomes the next event; fast-forward
	// must stop at the bound before it and at the event itself.
	n.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, 150)
	if next, ok := n.NextEventCycle(); !ok || next != 150 {
		t.Fatalf("next event = %v,%v, want 150,true", next, ok)
	}
	n.AdvanceTo(120)
	if n.Cycle() != 120 {
		t.Fatalf("AdvanceTo(120) jumped to %d, past the bound", n.Cycle())
	}
	if n.InFlight() != 1 {
		t.Fatal("packet lost before its injection cycle")
	}
	n.AdvanceTo(400)
	got := n.Drain()
	if len(got) != 1 {
		t.Fatalf("drained %d packets, want 1", len(got))
	}

	// The delivery time must match an exhaustive twin's exactly.
	exCfg := DefaultConfig()
	exCfg.DisableGating = true
	ex := mustNet(t, exCfg, m, topology.NewXY(m))
	ex.AdvanceTo(100)
	ex.Inject(&Packet{Src: 0, Dst: 15, VNet: 0, Size: 1}, 150)
	ex.AdvanceTo(400)
	ref := ex.Drain()
	if len(ref) != 1 || ref[0].DeliveredAt != got[0].DeliveredAt {
		t.Fatalf("gated delivery at %v, exhaustive at %v", got[0].DeliveredAt, ref[0].DeliveredAt)
	}
	if got[0].InjectedAt != 150 {
		t.Fatalf("packet entered the network at %v, want its creation cycle 150", got[0].InjectedAt)
	}
}

// TestSteadyStateZeroAlloc pins the zero-alloc steady state of the
// one-shard sweep: after warmup, a quantum of inject / advance / drain
// / recycle performs no heap allocation when packets come from the
// pool.
func TestSteadyStateZeroAlloc(t *testing.T) {
	m := topology.NewMesh(4, 4, 1)
	n := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	rng := sim.NewRNG(3, 3)
	quantum := func() {
		base := n.Cycle()
		for s := 0; s < 16; s++ {
			if rng.Bernoulli(0.2) {
				p := n.NewPacket()
				p.Src = s
				p.Dst = (s + 5) % 16
				p.VNet = rng.Intn(3)
				p.Size = 3
				n.Inject(p, base)
			}
		}
		n.AdvanceTo(base + 64)
		for _, p := range n.Drain() {
			n.Recycle(p)
		}
	}
	for i := 0; i < 50; i++ {
		quantum() // warm scratch, queue capacities, and the pool
	}
	if avg := testing.AllocsPerRun(100, quantum); avg != 0 {
		t.Errorf("steady-state quantum loop allocates %.2f allocs/op, want 0", avg)
	}
	if hr := n.ActivityStats().PoolHitRate(); hr < 0.9 {
		t.Errorf("pool hit rate %.2f after warmup, want >= 0.9", hr)
	}
}
