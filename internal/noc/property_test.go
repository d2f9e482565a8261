package noc

import (
	"bytes"
	"testing"
	"testing/quick"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// TestConservationProperty: across random router configurations,
// topologies, and traffic, every injected packet is delivered exactly
// once and the network fully drains — no loss, duplication, or
// deadlock.
func TestConservationProperty(t *testing.T) {
	f := func(seed uint64, vcsRaw, depthRaw, sideRaw, rateRaw uint8, torus bool) bool {
		vcs := 1 + int(vcsRaw)%3     // 1..3
		depth := 2 + int(depthRaw)%4 // 2..5
		side := 3 + int(sideRaw)%3   // 3..5
		rate := 0.05 + float64(rateRaw%20)/100.0

		var topo topology.Topology
		var routing topology.Routing
		if torus {
			tor := topology.NewTorus(side, side, 1)
			topo, routing = tor, topology.NewTorusDOR(tor)
			if vcs%2 == 1 {
				vcs++ // dateline needs an even VC count per vnet
			}
		} else {
			m := topology.NewMesh(side, side, 1)
			topo, routing = m, topology.NewXY(m)
		}
		cfg := DefaultConfig()
		cfg.VCsPerVNet = vcs
		cfg.BufDepth = depth
		n, err := New(cfg, topo, routing)
		if err != nil {
			t.Logf("config rejected: %v", err)
			return false
		}
		defer n.Close()

		rng := sim.NewRNG(seed, 77)
		terms := topo.NumTerminals()
		injected := 0
		seen := make(map[uint64]int)
		for cyc := 0; cyc < 150; cyc++ {
			for s := 0; s < terms; s++ {
				if rng.Bernoulli(rate) {
					d := rng.Intn(terms - 1)
					if d >= s {
						d++
					}
					n.Inject(&Packet{Src: s, Dst: d, VNet: rng.Intn(3), Size: 1 + rng.Intn(5)}, n.Cycle())
					injected++
				}
			}
			n.Step()
			for _, p := range n.Drain() {
				seen[p.ID]++
			}
		}
		for i := 0; i < 100000 && !n.Quiescent(); i++ {
			n.Step()
			for _, p := range n.Drain() {
				seen[p.ID]++
			}
		}
		if !n.Quiescent() {
			t.Logf("seed=%d vcs=%d depth=%d side=%d torus=%v: failed to drain", seed, vcs, depth, side, torus)
			return false
		}
		if len(seen) != injected {
			t.Logf("lost packets: %d/%d", len(seen), injected)
			return false
		}
		for id, c := range seen {
			if c != 1 {
				t.Logf("packet %d delivered %d times", id, c)
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestDeflectionConservationProperty: the bufferless network preserves
// the same conservation invariant under random load.
func TestDeflectionConservationProperty(t *testing.T) {
	f := func(seed uint64, sideRaw, rateRaw uint8) bool {
		side := 3 + int(sideRaw)%3
		rate := 0.05 + float64(rateRaw%25)/100.0
		m := topology.NewMesh(side, side, 1)
		n, err := NewDeflection(DefaultDeflectConfig(), m)
		if err != nil {
			return false
		}
		defer n.Close()
		rng := sim.NewRNG(seed, 99)
		terms := m.NumTerminals()
		injected := 0
		delivered := 0
		for cyc := 0; cyc < 150; cyc++ {
			for s := 0; s < terms; s++ {
				if rng.Bernoulli(rate) {
					d := rng.Intn(terms - 1)
					if d >= s {
						d++
					}
					n.Inject(&Packet{Src: s, Dst: d, Size: 1 + rng.Intn(4)}, n.Cycle())
					injected++
				}
			}
			n.Step()
			delivered += len(n.Drain())
		}
		for i := 0; i < 200000 && !n.Quiescent(); i++ {
			n.Step()
			delivered += len(n.Drain())
		}
		return n.Quiescent() && delivered == injected
	}
	cfg := &quick.Config{MaxCount: 15}
	if testing.Short() {
		cfg.MaxCount = 3
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestShardedEqualsExhaustiveProperty: on random grids — prime router
// counts (single-row meshes and rings) and tori included — with a random
// traffic pattern and any worker count from the default to beyond the
// router count, the gated run of either router engine matches the
// exhaustive sequential sweep on fingerprints and on mid-run and
// end-of-run checkpoint bytes, and every injected packet comes out. The
// VC router's shape varies too: one or four terminals per router, two
// or four VCs per virtual network (up to 8 ports of 12 VCs, 96 input
// VCs a router — more than one mask word) and buffers 1, 4 or 8 deep.
func TestShardedEqualsExhaustiveProperty(t *testing.T) {
	patterns := []string{"uniform", "hotspot", "bursty"}
	f := func(wRaw, hRaw, workersRaw, patRaw, shapeRaw uint8, torus, deflect bool) bool {
		pattern := patterns[int(patRaw)%len(patterns)]
		conc := 1
		cfg := DefaultConfig()
		if !deflect {
			conc = []int{1, 4}[shapeRaw&1]
			cfg.VCsPerVNet = []int{2, 4}[shapeRaw>>1&1]
			cfg.BufDepth = []int{4, 1, 8}[int(shapeRaw>>2)%3]
		}
		var topo topology.Topology
		var routing topology.Routing
		if torus {
			tor := topology.NewTorus(3+int(wRaw)%3, []int{1, 3}[int(hRaw)%2], conc)
			topo, routing = tor, topology.NewTorusDOR(tor)
		} else {
			m := topology.NewMesh(2+int(wRaw)%6, 1+int(hRaw)%3, conc)
			topo, routing = m, topology.NewXY(m)
		}
		R := topo.NumRouters()
		workers := int(workersRaw) % (R + 4) // 0 .. R+3: default, exact fit, and clamped
		fail := func(what string) bool {
			t.Logf("%s vcs=%d depth=%d workers=%d pattern=%s deflect=%v: %s",
				topo.Name(), cfg.TotalVCs(), cfg.BufDepth, workers, pattern, deflect, what)
			return false
		}

		var wantFP, gotFP string
		var wantMid, wantEnd, gotMid, gotEnd []byte
		var injected, delivered uint64
		if deflect {
			exCfg := DefaultDeflectConfig()
			exCfg.DisableGating = true
			ex, err := NewDeflection(exCfg, topo)
			if err != nil {
				return fail(err.Error())
			}
			g, err := NewDeflection(DefaultDeflectConfig(), topo, WithDeflectWorkers(workers))
			if err != nil {
				return fail(err.Error())
			}
			defer g.Close()
			wantFP, wantMid, wantEnd = runDeflGatingLoad(t, ex, pattern)
			gotFP, gotMid, gotEnd = runDeflGatingLoad(t, g, pattern)
			injected, delivered = g.Injected(), g.Delivered()
		} else {
			exCfg := cfg
			exCfg.DisableGating = true
			ex, err := New(exCfg, topo, routing)
			if err != nil {
				return fail(err.Error())
			}
			g, err := New(cfg, topo, routing, WithWorkers(workers))
			if err != nil {
				return fail(err.Error())
			}
			defer g.Close()
			wantFP, wantMid, wantEnd = runGatingLoad(t, ex, pattern)
			gotFP, gotMid, gotEnd = runGatingLoad(t, g, pattern)
			injected, delivered = g.Injected(), g.Delivered()
		}
		switch {
		case gotFP != wantFP:
			return fail("fingerprint diverged from the exhaustive sweep")
		case !bytes.Equal(gotMid, wantMid):
			return fail("mid-run checkpoint bytes differ from the exhaustive sweep")
		case !bytes.Equal(gotEnd, wantEnd):
			return fail("end-of-run checkpoint bytes differ from the exhaustive sweep")
		case injected == 0 || delivered != injected:
			return fail("packets lost")
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 40}
	if testing.Short() {
		cfg.MaxCount = 8
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
