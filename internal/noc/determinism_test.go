package noc

import (
	"fmt"
	"testing"

	"repro/internal/noc/topology"
	"repro/internal/sim"
)

// fingerprint summarizes the externally observable outcome of a run:
// per-packet delivery times and hops, plus aggregate flit counts.
func fingerprint(n *Network, pkts []*Packet) string {
	s := fmt.Sprintf("flits=%d util=%.6f ", n.FlitsSwitched(), n.AvgLinkUtilization())
	for _, p := range pkts {
		s += fmt.Sprintf("[%d:%d@%d h%d]", p.ID, p.Dst, p.DeliveredAt, p.Hops)
	}
	return s
}

// runLoad injects a deterministic mixed workload and runs to drain,
// returning delivered packets in delivery order.
func runLoad(t *testing.T, n *Network) []*Packet {
	t.Helper()
	terms := n.Topology().NumTerminals()
	rng := sim.NewRNG(42, 1)
	var delivered []*Packet
	for cyc := 0; cyc < 400; cyc++ {
		for s := 0; s < terms; s++ {
			if rng.Bernoulli(0.08) {
				d := rng.Intn(terms - 1)
				if d >= s {
					d++
				}
				size := 1
				if rng.Bernoulli(0.5) {
					size = 5
				}
				n.Inject(&Packet{Src: s, Dst: d, VNet: rng.Intn(3), Size: size}, n.Cycle())
			}
		}
		n.Step()
		delivered = append(delivered, n.Drain()...)
	}
	for i := 0; i < 5000 && !n.Quiescent(); i++ {
		n.Step()
		delivered = append(delivered, n.Drain()...)
	}
	if !n.Quiescent() {
		t.Fatal("network failed to drain")
	}
	return delivered
}

// TestWorkersBitIdentical is the property every host-parallel mode
// relies on: the phase-structured router update must produce identical
// results no matter how routers are partitioned across workers (100
// exceeds the 64-router mesh, exercising the shard clamp).
func TestWorkersBitIdentical(t *testing.T) {
	m := topology.NewMesh(8, 8, 1)
	ref := mustNet(t, DefaultConfig(), m, topology.NewXY(m))
	refPkts := runLoad(t, ref)
	want := fingerprint(ref, refPkts)
	if len(refPkts) == 0 {
		t.Fatal("reference run delivered nothing")
	}

	for _, workers := range []int{1, 2, 4, 100} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			n := mustNet(t, DefaultConfig(), m, topology.NewXY(m), WithWorkers(workers))
			pkts := runLoad(t, n)
			if got := fingerprint(n, pkts); got != want {
				t.Errorf("run with workers=%d diverged from the default\ndef: %.120s\ngot: %.120s",
					workers, want, got)
			}
		})
	}
}

// TestWorkersAdaptiveIdentical repeats the equivalence check under
// adaptive routing, whose congestion-sensitive decisions would expose
// any cross-router data race immediately.
func TestWorkersAdaptiveIdentical(t *testing.T) {
	m := topology.NewMesh(6, 6, 1)
	ref := mustNet(t, DefaultConfig(), m, topology.NewOddEven(m))
	want := fingerprint(ref, runLoad(t, ref))

	n := mustNet(t, DefaultConfig(), m, topology.NewOddEven(m), WithWorkers(4))
	if got := fingerprint(n, runLoad(t, n)); got != want {
		t.Error("adaptive-routing run with 4 workers diverged from the default")
	}
}
