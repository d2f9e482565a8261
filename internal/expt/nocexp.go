package expt

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/abstractnet"
	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/traffic"
	"repro/internal/workload"
)

// FigureF1 produces the classic load-latency curves on an 8x8 mesh for
// three synthetic patterns, comparing the detailed cycle-level network
// against the fixed and contention-aware abstract models driven by the
// identical packet sequence — the first demonstration that the
// abstract models lose fidelity as load approaches saturation.
func FigureF1(s Scale) []*stats.Table {
	const side = 8
	rates := []float64{0.02, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30}
	patterns := []string{"uniform", "transpose", "hotspot"}
	warm, measure := 500, 2000
	if s.OpsPerCore < 500 { // quick scale
		warm, measure = 200, 600
	}

	var tables []*stats.Table
	for _, pname := range patterns {
		t := stats.NewTable(fmt.Sprintf("F1: load-latency, %s traffic, %dx%d mesh", pname, side, side),
			"rate", "detailed-lat", "fixed-lat", "contention-lat", "detailed-thpt", "accepted-frac")
		for _, rate := range rates {
			det, thpt, offered := detailedOpenLoop(side, pname, rate, warm, measure)
			fixed := abstractOpenLoop(side, pname, rate, warm, measure, false)
			cont := abstractOpenLoop(side, pname, rate, warm, measure, true)
			frac := 1.0
			if offered > 0 {
				frac = thpt / offered
			}
			t.AddRow(rate, det, fixed, cont, thpt, frac)
		}
		tables = append(tables, t)
	}
	return tables
}

// detailedOpenLoop runs the cycle-level network open-loop and returns
// mean latency, accepted throughput (packets/cycle/terminal), and
// offered load in the measurement window.
func detailedOpenLoop(side int, pattern string, rate float64, warm, measure int) (lat, thpt, offered float64) {
	m := topology.NewMesh(side, side, 1)
	net, err := noc.New(noc.DefaultConfig(), m, topology.NewXY(m))
	if err != nil {
		panic(err)
	}
	defer net.Close()
	pat, err := traffic.ByName(pattern, side*side, side)
	if err != nil {
		panic(err)
	}
	gen := traffic.Generator{Pattern: pat, Rate: rate, Seed: 11}
	for i := 0; i < warm; i++ {
		gen.Tick(net, net.Cycle())
		net.Step()
		net.Drain()
	}
	net.Tracker().Reset()
	injStart := net.Injected()
	delStart := net.Delivered()
	for i := 0; i < measure; i++ {
		gen.Tick(net, net.Cycle())
		net.Step()
		net.Drain()
	}
	terms := float64(side * side)
	lat = net.Tracker().Mean()
	thpt = float64(net.Delivered()-delStart) / float64(measure) / terms
	offered = float64(net.Injected()-injStart) / float64(measure) / terms
	return lat, thpt, offered
}

// abstractOpenLoop drives an abstract model with the identical packet
// sequence and returns its mean latency.
func abstractOpenLoop(side int, pattern string, rate float64, warm, measure int, contention bool) float64 {
	m := topology.NewMesh(side, side, 1)
	params := abstractnet.DefaultParams()
	var model abstractnet.Model
	if contention {
		model = abstractnet.NewContention(m, params)
	} else {
		model = abstractnet.NewFixed(m, params)
	}
	net := abstractnet.NewNetwork(model)
	pat, err := traffic.ByName(pattern, side*side, side)
	if err != nil {
		panic(err)
	}
	gen := traffic.Generator{Pattern: pat, Rate: rate, Seed: 11, Terminals: side * side, VNets: 3}
	for cyc := 0; cyc < warm+measure; cyc++ {
		now := sim.Cycle(cyc)
		gen.Emit(now, func(p *noc.Packet) { net.Inject(p, now) })
		net.AdvanceTo(now + 1)
		net.Drain()
		if cyc == warm {
			net.Tracker().Reset()
		}
	}
	return net.Tracker().Mean()
}

// TableT2 explores router design points under full co-simulation and
// contrasts the full-system ranking with the network-only (synthetic
// open-loop) ranking — the paper's argument that component design
// choices must be evaluated in system context.
//
// The design points run as one warm-fork family: a single simulation
// executes the warmup phase (first eighth of the workload, caches
// filling, on the base router config), then each point forks the
// warmed system onto its own freshly built network. The warmup is
// simulated — and booked, in the fork-warm-ms column — once per
// family instead of once per design point, and the shared prefix
// makes the measured phases strictly comparable.
func TableT2(s Scale) []*stats.Table {
	type point struct {
		name    string
		vcs     int
		depth   int
		routing string
	}
	points := []point{
		{"1vc-2buf-xy", 1, 2, "xy"},
		{"2vc-4buf-xy", 2, 4, "xy"},
		{"4vc-8buf-xy", 4, 8, "xy"},
		{"2vc-4buf-oe", 2, 4, "oddeven"},
		{"1vc-8buf-xy", 1, 8, "xy"},
		{"4vc-2buf-xy", 4, 2, "xy"},
	}

	base := repro.DefaultConfig(s.Cores)
	base.Quantum = s.Quantum
	wl, err := workload.ByName("radix", s.Cores, s.OpsPerCore, s.Seed)
	if err != nil {
		panic(err)
	}
	warm, err := repro.BuildCosim(base, repro.ModeReciprocal, wl)
	if err != nil {
		panic(err)
	}
	defer warm.Close()
	warmOps := uint64(s.Cores*s.OpsPerCore) / 8
	warmStart := time.Now() //simlint:allow wallclock fork-warm-ms books host warmup time by design
	for warm.Sys.Retired() < warmOps && !warm.Sys.Done() && warm.Cycle() < s.CycleLimit {
		warm.Step()
	}
	// Forking across differently-structured networks needs a drained
	// network (in-flight packets cannot be transplanted).
	if !warm.RunToQuiescence(warm.Cycle(), s.CycleLimit) || warm.Sys.Done() {
		panic("expt: T2 warmup consumed the whole run")
	}
	warmWall := time.Since(warmStart) //simlint:allow wallclock fork-warm-ms books host warmup time by design

	t := stats.NewTable(
		fmt.Sprintf("T2: NoC design space — system-level vs network-only view (warm-forked at cycle %d)",
			warm.Cycle()),
		"config", "exec-cycles", "cosim-lat", "noc-only-lat", "sys-rank", "noc-rank",
		"net-gated-ms", "net-exhaust-ms", "gate-speedup",
		"net-shard-ms", "shard-speedup", "fork-warm-ms")

	type row struct {
		name                  string
		exec                  sim.Cycle
		cosimLat, nLat        float64
		gated, exhaust, shard time.Duration
	}
	var rows []row
	for _, p := range points {
		cfg := base
		cfg.Router.VCsPerVNet = p.vcs
		cfg.Router.BufDepth = p.depth
		cfg.Routing = p.routing
		res := runForkedT2(warm, cfg, s)
		// The same design point under the exhaustive -no-fastforward
		// sweep: results must be bit-identical (activity gating is a
		// speed knob, never an accuracy knob), only NetWall may differ.
		exCfg := cfg
		exCfg.DisableGating = true
		exRes := runForkedT2(warm, exCfg, s)
		if exRes.ExecCycles != res.ExecCycles || exRes.Packets != res.Packets {
			panic(fmt.Sprintf("expt: T2 %s: gated and exhaustive runs diverged", p.name))
		}
		// And under the sharded sweep: the same bit-identity contract —
		// sharding, like gating, may only move NetWall.
		shCfg := cfg
		shCfg.NocWorkers = s.shardWorkers()
		shRes := runForkedT2(warm, shCfg, s)
		if shRes.ExecCycles != res.ExecCycles || shRes.Packets != res.Packets {
			panic(fmt.Sprintf("expt: T2 %s: sharded and sequential runs diverged", p.name))
		}
		nLat := nocOnlyLatency(cfg, s)
		rows = append(rows, row{p.name, res.ExecCycles, res.AvgLatency, nLat,
			res.NetWall, exRes.NetWall, shRes.NetWall})
	}
	sysRank := rankBy(rows, func(r row) float64 { return float64(r.exec) })
	nocRank := rankBy(rows, func(r row) float64 { return r.nLat })
	for i, r := range rows {
		sp := 0.0
		if r.gated > 0 {
			sp = float64(r.exhaust) / float64(r.gated)
		}
		shSp := 0.0
		if r.shard > 0 {
			shSp = float64(r.gated) / float64(r.shard)
		}
		// The shared warmup is recorded once, on the first row: booking
		// it per design point would count one simulation six times.
		warmMS := 0.0
		if i == 0 {
			warmMS = wallMS(warmWall)
		}
		t.AddRow(r.name, uint64(r.exec), r.cosimLat, r.nLat, sysRank[i], nocRank[i],
			wallMS(r.gated), wallMS(r.exhaust), sp,
			wallMS(r.shard), shSp, warmMS)
	}
	return []*stats.Table{t}
}

// runForkedT2 forks the warmed T2 family simulation onto the design
// point's network and runs the fork to completion.
func runForkedT2(warm *core.Cosim, cfg repro.Config, s Scale) core.Result {
	f, err := repro.ForkCosim(warm, cfg, repro.ModeReciprocal)
	if err != nil {
		panic(err)
	}
	defer f.Close()
	f.SetObserver(obs.New(obs.Options{Wall: true}))
	res := f.Run(s.CycleLimit)
	if !res.Finished {
		panic("expt: T2 run hit cycle limit")
	}
	return res
}

// nocOnlyLatency evaluates the same router configuration standalone
// under uniform synthetic traffic at moderate load.
func nocOnlyLatency(cfg repro.Config, s Scale) float64 {
	net, err := repro.BuildNoC(cfg)
	if err != nil {
		panic(err)
	}
	defer net.Close()
	gen := traffic.Generator{Pattern: traffic.Uniform{}, Rate: 0.12, Seed: 11}
	warm, measure := 300, 1200
	if s.OpsPerCore < 500 {
		warm, measure = 150, 500
	}
	tr := gen.RunOpenLoop(net, warm, measure, 20000)
	return tr.Mean()
}

// rankBy assigns 1-based ranks (smaller metric = better = rank 1).
func rankBy[T any](rows []T, metric func(T) float64) []int {
	ranks := make([]int, len(rows))
	for i := range rows {
		rank := 1
		for j := range rows {
			if metric(rows[j]) < metric(rows[i]) {
				rank++
			}
		}
		ranks[i] = rank
	}
	return ranks
}
