//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"fmt"
	"runtime"
	"time"

	"repro"
	"repro/internal/noc"
	"repro/internal/sim"
)

// The saturated-mesh workload drives a standalone cycle-level network
// the way the coordinator does: one quantum of timestamped injections,
// AdvanceTo the boundary, drain, recycle.
const (
	nocQuantum = 64
	// nocRate is the offered load in single-flit packets per node per
	// cycle: past saturation for the default router, so every router is
	// busy every cycle and activity gating has nothing to skip.
	nocRate = 0.45
	// nocInFlightPerRouter caps the backlog: once more than this many
	// packets per router are in flight the rest of the quantum's offers
	// are withheld, as a saturated source would stall.
	nocInFlightPerRouter = 32
)

// offer is one precomputed injection.
type offer struct {
	src, dst int32
	at       sim.Cycle
}

// nocPlan is the whole run's offered traffic, one slice per quantum in
// cycle order (per-source creation times are nondecreasing), generated
// from the seed alone.
func nocPlan(seed uint64, nodes, cycles int) [][]offer {
	rng := sim.NewRNG(seed, 0x6e6f63)
	plan := make([][]offer, 0, cycles/nocQuantum)
	for base := 0; base+nocQuantum <= cycles; base += nocQuantum {
		q := make([]offer, 0, int(float64(nocQuantum*nodes)*nocRate*1.1))
		for off := 0; off < nocQuantum; off++ {
			for s := 0; s < nodes; s++ {
				if !rng.Bernoulli(nocRate) {
					continue
				}
				d := rng.Intn(nodes - 1)
				if d >= s {
					d++
				}
				q = append(q, offer{int32(s), int32(d), sim.Cycle(base + off)})
			}
		}
		plan = append(plan, q)
	}
	return plan
}

// nocVariant selects how the mesh is stepped; the simulated outcome is
// the same for all of them.
type nocVariant struct {
	label         string
	disableGating bool
	workers       int
}

// nocResult is one saturated-mesh session.
type nocResult struct {
	setup, wall            time.Duration
	inject, advance, drain time.Duration
	cycles                 uint64
	fp                     string
	liveMB, allocMB        float64
	gcCycles               uint32
	activity               noc.ActivityStats
	flits                  uint64
	problems               []string
}

// buildNoC is the workload's set-up: the offered traffic and the mesh.
func (h *harness) buildNoC(v nocVariant, parent int) ([][]offer, *noc.Network, error) {
	width := h.sz.nocWidth
	sp := h.tr.begin("build.workload", "build", parent)
	plan := nocPlan(h.seed, width*width, h.sz.nocCycles)
	h.tr.end(sp)
	sp = h.tr.begin("build.noc", "build", parent)
	defer h.tr.end(sp)
	cfg := repro.DefaultConfig(width * width)
	cfg.MeshW, cfg.MeshH = width, width
	cfg.DisableGating = v.disableGating
	cfg.NocWorkers = v.workers
	net, err := repro.BuildNoC(cfg)
	return plan, net, err
}

// runNoC builds the mesh and the plan, runs the saturated phase (timed),
// then steps until the network is empty (untimed) to check that no
// packet was lost.
func (h *harness) runNoC(v nocVariant, traced bool, parent int) nocResult {
	var out nocResult
	nodes := h.sz.nocWidth * h.sz.nocWidth
	baseline := heapNow()

	t0 := time.Now()
	plan, net, err := h.buildNoC(v, parent)
	out.setup = time.Since(t0)
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	defer net.Close()

	var tr *tracer
	if traced {
		tr = h.tr
	}
	run := h.tr.begin("run "+v.label, "harness", parent)
	inject := callTimer{name: "inject", layer: "noc", tr: tr, parent: run}
	advance := callTimer{name: "advance", layer: "noc", tr: tr, parent: run}
	drain := callTimer{name: "drain", layer: "noc", tr: tr, parent: run}
	maxInFlight := nocInFlightPerRouter * nodes
	var injected, delivered uint64

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for _, q := range plan {
		ta := time.Now()
		for _, o := range q {
			if net.InFlight() > maxInFlight {
				break
			}
			p := net.NewPacket()
			p.Src, p.Dst, p.Size = int(o.src), int(o.dst), 1
			net.Inject(p, o.at)
			injected++
		}
		tb := time.Now()
		net.AdvanceTo(net.Cycle() + nocQuantum)
		tc := time.Now()
		for _, p := range net.Drain() {
			delivered++
			net.Recycle(p)
		}
		td := time.Now()
		inject.add(ta, tb)
		advance.add(tb, tc)
		drain.add(tc, td)
	}
	out.wall = time.Since(start)
	runtime.ReadMemStats(&m1)
	inject.flush()
	advance.flush()
	drain.flush()
	h.tr.end(run)
	out.inject, out.advance, out.drain = inject.total, advance.total, drain.total
	out.cycles = uint64(net.Cycle())
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	out.gcCycles = m1.NumGC - m0.NumGC
	out.activity = net.ActivityStats()
	out.flits = net.FlitsSwitched()
	out.liveMB = liveMB(heapNow(), baseline)

	// Empty the network: every injected packet must come out.
	for limit := net.Cycle() + 1_000_000; net.InFlight() > 0 && net.Cycle() < limit; {
		net.AdvanceTo(net.Cycle() + nocQuantum)
		for _, p := range net.Drain() {
			delivered++
			net.Recycle(p)
		}
	}
	t := net.Tracker()
	out.fp = fmt.Sprintf("cycles=%d injected=%d delivered=%d lat=%x netlat=%x p95=%x hops=%x flits=%d",
		out.cycles, injected, t.Count(), t.Mean(), t.MeanNetwork(), t.Percentile(0.95), t.MeanHops(), net.FlitsSwitched())
	if n := net.InFlight(); n != 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d packets never left the network", n))
	}
	if delivered != injected || t.Count() != injected {
		out.problems = append(out.problems, fmt.Sprintf("injected %d, drained %d, tracked %d", injected, delivered, t.Count()))
	}
	if injected == 0 {
		out.problems = append(out.problems, "nothing was injected")
	}
	runtime.KeepAlive(plan)
	return out
}

// nocSession runs one variant as an attempted operation with a pinned
// fingerprint: gated, exhaustive and sharded stepping must agree.
func (h *harness) nocSession(v nocVariant, traced bool) nocResult {
	h.tr.nextRun()
	r := h.runNoC(v, traced, -1)
	if r.fp != "" {
		r.problems = append(r.problems, h.pinFingerprint("noc_sat", r.fp)...)
	}
	h.attempt("noc "+v.label, r.problems)
	return r
}

// runNoCSat is the noc_sat32 workload.
func (h *harness) runNoCSat() {
	seq := nocVariant{label: "sequential"}
	if h.traced {
		plain := h.nocSession(seq, false)
		traced := h.nocSession(seq, true)
		h.observeNoCLayers(plain, traced)
		exhaustive := h.nocSession(nocVariant{label: "exhaustive", disableGating: true}, false)
		if exhaustive.wall > 0 {
			h.observe("noc.exhaustive_ratio", plain.wall.Seconds()/exhaustive.wall.Seconds())
		}
		w2 := h.nocSession(nocVariant{label: "workers2", workers: 2}, false)
		if w2.wall > 0 {
			h.observe("noc.shard_w2_speedup", plain.wall.Seconds()/w2.wall.Seconds())
		}
		if runtime.NumCPU() < 2 {
			h.note("noc.shard_w2_speedup is unverified: this host has fewer than 2 CPUs")
		}
		return
	}
	h.sampleSetups(func() (func(), error) {
		_, net, err := h.buildNoC(seq, -1)
		if err != nil {
			return nil, err
		}
		return net.Close, nil
	})
	h.repeat(func() []sample {
		r := h.nocSession(seq, false)
		return []sample{{r.setup, r.wall, r.cycles, r.liveMB}}
	})
}

func (h *harness) observeNoCLayers(plain, traced nocResult) {
	if plain.wall > 0 {
		h.observe("trace.overhead_pct", (traced.wall.Seconds()/plain.wall.Seconds()-1)*100)
	}
	if traced.wall <= 0 || traced.cycles == 0 {
		return
	}
	W := traced.wall.Seconds()
	busy := traced.inject + traced.advance + traced.drain
	h.observe("build.cosim_s", traced.setup.Seconds())
	h.observe("noc.advance_s", traced.advance.Seconds())
	h.observe("noc.inject_s", traced.inject.Seconds())
	h.observe("noc.drain_s", traced.drain.Seconds())
	h.observe("noc.share", busy.Seconds()/W)
	a := traced.activity
	if rc := float64(a.Stepped) * float64(a.Routers); rc > 0 {
		h.observe("noc.ns_per_router_cycle", float64(traced.advance.Nanoseconds())/rc)
	}
	h.observe("noc.cycles_stepped", float64(a.Stepped))
	h.observe("noc.cycles_skipped", float64(a.Skipped))
	h.observe("noc.active_occupancy", a.Occupancy())
	h.observe("noc.pool_hit_rate", a.PoolHitRate())
	if traced.flits > 0 {
		h.observe("noc.flits_switched", float64(traced.flits))
		h.observe("noc.ns_per_flit", float64(busy.Nanoseconds())/float64(traced.flits))
	}
	// The harness loop is the only other thing in the timed phase.
	h.observe("trace.share_sum", busy.Seconds()/W)
	h.attempt("layer shares", shareProblems(busy.Seconds()/W))
	h.observe("host.alloc_mb_per_mcycle", traced.allocMB/float64(traced.cycles)*1e6)
	h.observe("host.gc_cycles", float64(traced.gcCycles))
}
