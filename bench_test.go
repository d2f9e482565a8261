package repro_test

// One benchmark per reproduced table/figure (see DESIGN.md's
// experiment index), each running its experiment harness at the quick
// scale, plus microbenchmarks for the simulators' raw throughput.
// Regenerate everything with:
//
//	go test -bench=. -benchmem
//
// The paper-scale numbers in EXPERIMENTS.md come from
// `go run ./cmd/repro -exp all -scale full`.

import (
	"fmt"
	"testing"

	"repro"
	"repro/internal/expt"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/sim"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// benchScale keeps per-iteration work bounded.
func benchScale() expt.Scale {
	s := expt.Quick()
	s.OpsPerCore = 150
	s.Workloads = []string{"fft", "radix"}
	s.SpeedSizes = []int{16}
	s.SpeedOps = 100
	return s
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := expt.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	s := benchScale()
	for i := 0; i < b.N; i++ {
		tables := e.Run(s)
		if len(tables) == 0 || len(tables[0].Rows) == 0 {
			b.Fatalf("%s produced no results", id)
		}
	}
}

func BenchmarkT1Config(b *testing.B)         { benchExperiment(b, "T1") }
func BenchmarkF1LoadLatency(b *testing.B)    { benchExperiment(b, "F1") }
func BenchmarkF2Isolation(b *testing.B)      { benchExperiment(b, "F2") }
func BenchmarkF3Latency(b *testing.B)        { benchExperiment(b, "F3") }
func BenchmarkF4ErrorReduction(b *testing.B) { benchExperiment(b, "F4") }
func BenchmarkF5ExecTime(b *testing.B)       { benchExperiment(b, "F5") }
func BenchmarkF6Quantum(b *testing.B)        { benchExperiment(b, "F6") }
func BenchmarkF7GPUSpeed(b *testing.B)       { benchExperiment(b, "F7") }
func BenchmarkF8GPUBreakdown(b *testing.B)   { benchExperiment(b, "F8") }
func BenchmarkT2DesignSpace(b *testing.B)    { benchExperiment(b, "T2") }
func BenchmarkA1Hybrid(b *testing.B)         { benchExperiment(b, "A1") }
func BenchmarkA2Engine(b *testing.B)         { benchExperiment(b, "A2") }

// BenchmarkNoCCycles measures raw cycle-level NoC throughput
// (router-cycles per second) on an 8x8 mesh at moderate load.
func BenchmarkNoCCycles(b *testing.B) {
	m := topology.NewMesh(8, 8, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	gen := traffic.Generator{Pattern: traffic.Uniform{}, Rate: 0.1, Seed: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gen.Tick(net, net.Cycle())
		net.Step()
		net.Drain()
	}
	b.ReportMetric(float64(b.N)*64, "router-cycles/op-total")
	b.ReportMetric(float64(net.FlitsSwitched())/float64(b.N), "flits/cycle")
}

// injEvent is one precomputed injection in a benchmark quantum: the
// timed loops below pay for simulation, not traffic generation.
type injEvent struct {
	src, dst, size int
	off            sim.Cycle
}

// quantumPlan precomputes one 64-cycle quantum of Bernoulli uniform
// traffic, ordered by cycle so per-source creation times are
// nondecreasing.
func quantumPlan(rate float64, terms int) []injEvent {
	rng := sim.NewRNG(3, 17)
	var plan []injEvent
	for off := 0; off < 64; off++ {
		for s := 0; s < terms; s++ {
			if !rng.Bernoulli(rate) {
				continue
			}
			d := rng.Intn(terms - 1)
			if d >= s {
				d++
			}
			plan = append(plan, injEvent{src: s, dst: d, size: 1, off: sim.Cycle(off)})
		}
	}
	return plan
}

// benchQuantum measures the cosim-shaped steady state on a 64-router
// mesh: inject one quantum's traffic with future timestamps, advance
// to the boundary, drain, recycle. The pool plus retained scratch make
// this loop report 0 allocs/op under -benchmem when gating is on.
func benchQuantum(b *testing.B, rate float64, disableGating bool) {
	benchQuantumMesh(b, 8, 1, rate, disableGating)
}

// benchQuantumMesh generalizes benchQuantum across mesh widths and
// shard worker counts (workers <= 1 is the one-shard sweep). The
// in-flight cap and the traffic plan scale with the router count so
// every mesh size runs equally saturated.
func benchQuantumMesh(b *testing.B, width, workers int, rate float64, disableGating bool) {
	m := topology.NewMesh(width, width, 1)
	cfg := noc.DefaultConfig()
	cfg.DisableGating = disableGating
	net, err := noc.New(cfg, m, topology.NewXY(m), noc.WithWorkers(workers))
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	routers := width * width
	plan := quantumPlan(rate, routers)
	maxInFlight := 32 * routers
	quantum := func() {
		base := net.Cycle()
		for _, ev := range plan {
			if net.InFlight() > maxInFlight {
				break // saturated run: stop offering once backed up
			}
			p := net.NewPacket()
			p.Src, p.Dst, p.Size = ev.src, ev.dst, ev.size
			net.Inject(p, base+ev.off)
		}
		net.AdvanceTo(base + 64)
		for _, p := range net.Drain() {
			net.Recycle(p)
		}
	}
	// Warm scratch capacities, the packet pool and — the slow one — the
	// NI queue capacities: under the network-wide in-flight cap the
	// saturated run's backlog drifts towards the slowest-draining NIs
	// for a long time (DESIGN.md, "NoC stepping").
	for i := 0; i < 100; i++ {
		quantum()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		quantum()
	}
	b.StopTimer()
	act := net.ActivityStats()
	b.ReportMetric(act.Occupancy(), "active-occupancy")
	b.ReportMetric(float64(act.Skipped)/float64(act.Stepped+act.Skipped), "skipped-frac")
}

// BenchmarkStepIdleMesh is the activity-gating headline: a 64-tile
// mesh at 1% injection, where most routers are idle most cycles. Its
// exhaustive twin below sweeps all 64 routers every cycle; the gated
// run must come in at least ~3x faster.
func BenchmarkStepIdleMesh(b *testing.B) { benchQuantum(b, 0.01, false) }

// BenchmarkStepIdleMeshExhaustive is the same load with
// -no-fastforward semantics: the pre-gating cost reference.
func BenchmarkStepIdleMeshExhaustive(b *testing.B) { benchQuantum(b, 0.01, true) }

// BenchmarkStepSaturated keeps every router busy (45% injection): the
// gating bookkeeping must cost within a few percent of the exhaustive
// sweep here, since there is nothing to skip. The mesh-size × worker
// axes make the sharded sweep's intra-mesh scaling curve visible: on a
// multi-core host the w4/w8 rows speed up near-linearly, while w1 is
// byte-for-byte the sequential path (on a single-core host all rows
// cost about the same; see EXPERIMENTS.md).
// Under -benchmem the 16x16 and 32x32 rows print 0 allocs/op with a few
// kB/op (under one NI-queue growth per quantum left after the warm-up);
// 64x64 is further from its steady state and prints about 8.
func BenchmarkStepSaturated(b *testing.B) {
	for _, width := range []int{16, 32, 64} {
		for _, w := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%dx%d/w%d", width, width, w), func(b *testing.B) {
				benchQuantumMesh(b, width, w, 0.45, false)
			})
		}
	}
}

// BenchmarkStepSaturatedExhaustive is the saturated cost reference
// (sequential, no gating) at each mesh size.
func BenchmarkStepSaturatedExhaustive(b *testing.B) {
	for _, width := range []int{16, 32, 64} {
		b.Run(fmt.Sprintf("%dx%d", width, width), func(b *testing.B) {
			benchQuantumMesh(b, width, 1, 0.45, true)
		})
	}
}

// BenchmarkFullSystemCycles measures the coarse-grain system
// simulator's cycle rate (16 tiles, abstract network).
func BenchmarkFullSystemCycles(b *testing.B) {
	cfg := repro.DefaultConfig(16)
	wl := workload.NewCanneal(16, 1<<30, 5) // effectively endless
	cs, err := repro.BuildCosim(cfg, repro.ModeAbstract, wl)
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Net.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step()
	}
	b.ReportMetric(float64(cs.Cycle())/float64(b.N), "target-cycles/op")
}

// BenchmarkCosimSynchronous measures the ground-truth coupling's
// end-to-end rate (16 tiles, detailed NoC, quantum 1).
func BenchmarkCosimSynchronous(b *testing.B) {
	cfg := repro.DefaultConfig(16)
	wl := workload.NewFFT(16, 1<<30, 5)
	cs, err := repro.BuildCosim(cfg, repro.ModeSynchronous, wl)
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Net.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step()
	}
}

// BenchmarkCosimReciprocal measures the quantum-coupled rate at the
// default quantum.
func BenchmarkCosimReciprocal(b *testing.B) {
	cfg := repro.DefaultConfig(16)
	wl := workload.NewFFT(16, 1<<30, 5)
	cs, err := repro.BuildCosim(cfg, repro.ModeReciprocal, wl)
	if err != nil {
		b.Fatal(err)
	}
	defer cs.Net.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Step() // one quantum (64 cycles) per iteration
	}
	b.ReportMetric(float64(cfg.Quantum), "target-cycles/op")
}

// BenchmarkTypedQueue measures the simulation kernel's scheduling
// throughput.
func BenchmarkTypedQueue(b *testing.B) {
	var q sim.TypedQueue[int]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Schedule(sim.Cycle(i+10), i)
		if i%4 == 3 {
			for {
				if _, ok := q.PopUntil(sim.Cycle(i)); !ok {
					break
				}
			}
		}
	}
}

// BenchmarkRNG measures the deterministic random stream.
func BenchmarkRNG(b *testing.B) {
	r := sim.NewRNG(1, 1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += uint64(r.Uint32())
	}
	_ = sink
}

func BenchmarkA3DRAM(b *testing.B) { benchExperiment(b, "A3") }

func BenchmarkA4Power(b *testing.B) { benchExperiment(b, "A4") }

func BenchmarkA5RouterArch(b *testing.B) { benchExperiment(b, "A5") }

func BenchmarkA6CalibTelemetry(b *testing.B) { benchExperiment(b, "A6") }
