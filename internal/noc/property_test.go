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
		return conserves(t, seed, vcs, depth, side, rate, torus)
	}
	cfg := &quick.Config{MaxCount: 25}
	if testing.Short() {
		cfg.MaxCount = 5
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// TestTorusDatelineDrains replays the inputs on which a 5x5 torus once
// deadlocked: the y dimension dropped a packet back to VC set 0 on
// every hop, so one that had crossed the y dateline left set 1 and the
// wrap links closed a cycle of buffer dependencies. It stuck with 110
// flits in the network; with the set kept along y it drains.
func TestTorusDatelineDrains(t *testing.T) {
	if !conserves(t, 2758781654523856972, 2, 4, 5, 0.24, true) {
		t.Fatal("the torus did not deliver every packet exactly once")
	}
}

// conserves injects random traffic for 150 cycles into a side x side
// mesh (XY) or torus (dateline DOR) and reports whether the network
// then drains within 100 000 cycles, delivering every packet once.
func conserves(t *testing.T, seed uint64, vcs, depth, side int, rate float64, torus bool) bool {
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

// TestShardedEqualsExhaustiveProperty: on random grids — prime router
// counts (single-row meshes and rings) and tori included — with a random
// traffic pattern and any worker count from the default to beyond the
// router count, the gated run matches the exhaustive sequential sweep
// on fingerprints and on mid-run and end-of-run checkpoint bytes, and
// every injected packet comes out. The router's shape varies too: one
// or four terminals per router, two or four VCs per virtual network (up
// to 8 ports of 12 VCs, 96 input VCs a router — more than one mask
// word), buffers 1, 4 or 8 deep, and the pipeline: 1 to 3 router
// stages, link latency 1 to 3 and credit latency 1 or 2.
func TestShardedEqualsExhaustiveProperty(t *testing.T) {
	patterns := []string{"uniform", "hotspot", "bursty"}
	f := func(wRaw, hRaw, workersRaw, patRaw, shapeRaw uint8, torus bool, pipeRaw uint8) bool {
		pattern := patterns[int(patRaw)%len(patterns)]
		cfg := DefaultConfig()
		conc := []int{1, 4}[shapeRaw&1]
		cfg.VCsPerVNet = []int{2, 4}[shapeRaw>>1&1]
		cfg.BufDepth = []int{4, 1, 8}[int(shapeRaw>>2)%3]
		cfg.RouterStages = 1 + int(pipeRaw)%3
		cfg.LinkLatency = 1 + int(pipeRaw)/3%3
		cfg.CreditLatency = 1 + int(pipeRaw)/9%2
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
			t.Logf("%s vcs=%d depth=%d S=%d L=%d C=%d workers=%d pattern=%s: %s",
				topo.Name(), cfg.TotalVCs(), cfg.BufDepth, cfg.RouterStages, cfg.LinkLatency, cfg.CreditLatency, workers, pattern, what)
			return false
		}

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
		wantFP, wantMid, wantEnd := runGatingLoad(t, ex, pattern)
		gotFP, gotMid, gotEnd := runGatingLoad(t, g, pattern)
		injected, delivered := g.Injected(), g.Delivered()
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
