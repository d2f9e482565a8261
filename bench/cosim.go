//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/cosimd"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/workload"
)

// simJob is one in-process co-simulation: the generated inputs a
// session runs on.
type simJob struct {
	label  string
	kernel string
	tiles  int
	ops    int
	mode   repro.Mode
	mem    string // "" keeps the fixed-latency memory model
	seed   uint64
}

func (j simJob) config() repro.Config {
	cfg := repro.DefaultConfig(j.tiles)
	if j.mem != "" {
		cfg.System.MemModel = j.mem
	}
	return cfg
}

// layerOf names the module a mode's network backend belongs to.
func layerOf(mode repro.Mode) string {
	switch mode {
	case repro.ModeAbstract, repro.ModeContention:
		return "abstractnet"
	case repro.ModeCalibrated, repro.ModeHybrid:
		return "calib"
	}
	return "noc"
}

// sessionResult is what one in-process session measured.
type sessionResult struct {
	job       simJob
	res       core.Result
	fp        string
	setup     time.Duration
	genWall   time.Duration
	buildWall time.Duration
	wall      time.Duration
	liveMB    float64
	allocMB   float64
	gcCycles  uint32
	problems  []string
	layers    *layerTimes // traced sessions only

	msgs, l1Hits, l1Misses uint64
}

// layerTimes is the traced split of one run's wall time.
type layerTimes struct {
	layer                        string // backend layer: noc, abstractnet or calib
	tick, netWall                time.Duration
	inject, advance, drain, dram time.Duration
	quanta                       uint64
	packets                      uint64
	activity                     noc.ActivityStats
	hasActivity                  bool
	flits                        uint64
	retunes                      int
	residual, drift              float64
	dramStats                    struct{ completions, rowHit, avgLat float64 }
}

// exchange is the coordinator's own time: what NetWall holds beyond the
// components' advances (drains, Deliver, CompleteMem, recycling).
func (l *layerTimes) exchange() time.Duration { return l.netWall - l.advance - l.dram }

// runSession builds, runs and checks one job. With traced set, the
// network backend is wrapped and an observer attached; the simulated
// outcome must not move.
func (h *harness) runSession(job simJob, traced bool, parent int) sessionResult {
	out := sessionResult{job: job}
	cfg := job.config()
	baseline := heapNow() // also the forced collection before a timed run

	t0 := time.Now()
	sp := h.tr.begin("build.workload", "build", parent)
	wl, err := workload.ByName(job.kernel, job.tiles, job.ops, job.seed)
	h.tr.end(sp)
	t1 := time.Now()
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	sp = h.tr.begin("build.cosim", "build", parent)
	var cs *core.Cosim
	var tb *tracedBackend
	var inner core.Backend
	var ob *obs.Observer
	if traced {
		inner, err = repro.BuildBackend(cfg, job.mode)
		if err == nil {
			var be core.Backend
			be, tb = wrapBackend(inner, h.tr, layerOf(job.mode), parent)
			sysCfg := cfg.System
			sysCfg.Tiles = cfg.Tiles
			cs, err = core.Build(sysCfg, wl, be, repro.ModeQuantum(cfg, job.mode))
		}
		if err == nil {
			ob = obs.New(obs.Options{Metrics: true, Calib: true, Wall: true})
			cs.SetObserver(ob)
		}
	} else {
		cs, err = repro.BuildCosim(cfg, job.mode, wl)
	}
	h.tr.end(sp)
	t2 := time.Now()
	if err != nil {
		out.problems = append(out.problems, err.Error())
		return out
	}
	defer cs.Close()
	out.genWall, out.buildWall, out.setup = t1.Sub(t0), t2.Sub(t1), t2.Sub(t0)

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sp = h.tr.begin("run", "core", parent)
	if tb != nil {
		tb.inject.parent, tb.advance.parent, tb.drain.parent = sp, sp, sp
	}
	t3 := time.Now()
	out.res = cs.Run(cycleLimit)
	out.wall = time.Since(t3)
	if tb != nil {
		tb.flush()
	}
	h.tr.end(sp)
	runtime.ReadMemStats(&m1)
	out.allocMB = float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20)
	out.gcCycles = m1.NumGC - m0.NumGC

	out.fp = cosimd.Fingerprint(cs, out.res)
	out.msgs = cs.Sys.MsgsSent()
	out.l1Hits, out.l1Misses = cs.Sys.L1Stats()
	out.problems = checkRun(job, cfg, cs, out.res)
	out.liveMB = liveMB(heapNow(), baseline)
	if traced {
		out.layers = collectLayers(job, cs, inner, tb, ob, out.res)
	}
	return out
}

// checkRun lists what is wrong with a finished run (nothing, when it is
// a complete, coherent, in-bounds simulation).
func checkRun(job simJob, cfg repro.Config, cs *core.Cosim, res core.Result) []string {
	var problems []string
	if !res.Finished {
		problems = append(problems, "did not finish")
	}
	if res.Stalled {
		problems = append(problems, "watchdog stall")
	}
	// Retired counts compute and barrier operations too, so the memory
	// budget is a floor.
	if budget := uint64(job.tiles) * uint64(job.ops); res.Retired < budget {
		problems = append(problems, fmt.Sprintf("retired %d operations, fewer than the %d budgeted", res.Retired, budget))
	}
	if n := cs.Net.InFlight(); n != 0 {
		problems = append(problems, fmt.Sprintf("%d packets left in flight", n))
	}
	if err := cs.Sys.CheckCoherence(); err != nil {
		problems = append(problems, "coherence: "+err.Error())
	}
	if q := repro.ModeQuantum(cfg, job.mode); res.MaxSkew > sim.Cycle(q-1) {
		problems = append(problems, fmt.Sprintf("max skew %d exceeds quantum-1 = %d", res.MaxSkew, q-1))
	}
	return problems
}

// collectLayers reads the traced split: the wrapper's timers, the
// result's own system/network split, and the observer's registry for
// the memory oracles, which cannot be wrapped from outside.
func collectLayers(job simJob, cs *core.Cosim, inner core.Backend, tb *tracedBackend, ob *obs.Observer, res core.Result) *layerTimes {
	l := &layerTimes{
		layer: layerOf(job.mode),
		tick:  res.SysWall, netWall: res.NetWall,
		inject: tb.inject.total, advance: tb.advance.total, drain: tb.drain.total,
		packets: res.Packets,
	}
	ob.Metrics().Visit(func(m obs.MetricView) {
		switch {
		case m.Name == "cosim.quanta":
			l.quanta = uint64(m.Value)
		case strings.HasPrefix(m.Name, "wall.advance_ns/mem") && m.Hist != nil:
			l.dram += time.Duration(m.Hist.Mean() * float64(m.Hist.Count()))
		}
	})
	if ar, ok := inner.(interface{ ActivityStats() noc.ActivityStats }); ok {
		l.activity, l.hasActivity = ar.ActivityStats(), true
	}
	if fs, ok := inner.(interface{ FlitsSwitched() uint64 }); ok {
		l.flits = fs.FlitsSwitched()
	}
	var fed int
	for _, s := range ob.Calib().Summarize() {
		l.retunes += s.Retunes
		if s.Fed > 0 {
			fed++
			l.residual += s.MeanResidual
			l.drift += s.MeanAbsDrift
		}
	}
	if fed > 0 {
		l.residual /= float64(fed)
		l.drift /= float64(fed)
	}
	ds := cs.Sys.DRAMStats()
	l.dramStats.completions = float64(ds.Reads + ds.Writes)
	l.dramStats.rowHit = ds.RowHitRate()
	l.dramStats.avgLat = ds.AvgLatency
	return l
}

// pass runs every job of a workload once and returns the results in job
// order. Each job is one attempted operation; its fingerprint is pinned
// against every other run of the same job in this invocation.
func (h *harness) pass(jobs []simJob, traced bool) []sessionResult {
	h.tr.nextRun()
	root := h.tr.begin("pass", "harness", -1)
	defer h.tr.end(root)
	out := make([]sessionResult, 0, len(jobs))
	for _, job := range jobs {
		r := h.runSession(job, traced, root)
		if r.fp != "" {
			r.problems = append(r.problems, h.pinFingerprint(job.label, r.fp)...)
		}
		h.attempt(job.label, r.problems)
		out = append(out, r)
	}
	return out
}

// passTotals sums one pass.
func passTotals(rs []sessionResult) (wall time.Duration, cycles uint64) {
	for _, r := range rs {
		wall += r.wall
		cycles += uint64(r.res.ExecCycles)
	}
	return wall, cycles
}

// sample is what one untraced session contributes to the end-to-end
// metrics.
type sample struct {
	setup, wall time.Duration
	cycles      uint64
	liveMB      float64
}

// repeat runs fixed-size repetitions until the window is spent (at
// least three) and records their end-to-end samples: one per session
// for set-up, heap and latency, one per repetition for the host cost of
// a simulated megacycle, one per run for throughput. Host times are
// scaled to the reference host (hostspeed.go) by the slowness measured
// beside the repetition they come from.
func (h *harness) repeat(rep func() []sample) {
	start := time.Now()
	var sessions int
	var busy, rawBusy float64
	for n := 1; ; n++ {
		t0 := time.Now()
		stop := h.sampleHost()
		samples := rep()
		took := time.Since(t0)
		slow := stop()
		var rawWall float64
		var cycles uint64
		for _, s := range samples {
			setup, run := s.setup.Seconds(), s.wall.Seconds()
			h.observeScaled("setup_s", setup/slow, setup)
			h.observe("live_heap_mb", s.liveMB)
			h.observeScaled("submit_to_result_p50_ms", (setup+run)/slow*1e3, (setup+run)*1e3)
			rawWall += run
			cycles += s.cycles
			sessions++
			busy += (setup + run) / slow
			rawBusy += setup + run
		}
		if cycles > 0 {
			perMcycle := rawWall / float64(cycles) * 1e6
			h.observeScaled("wall_s_per_mcycle", perMcycle/slow, perMcycle)
		}
		if n >= 3 && h.remaining(start) < took {
			break
		}
	}
	if busy > 0 {
		h.observeScaled("sessions_per_s", float64(sessions)/busy, float64(sessions)/rawBusy)
	}
}

// Set-up takes from 0.4 to 25 ms, so a run repeats it beyond the
// sessions it measures until its median rests on enough samples: for
// setupBudget of host time (a tenth of a window shorter than ten times
// that), but at least minSetups and at most maxSetups times. With 60
// repetitions the sub-millisecond set-ups still ranged 314 to 530 us
// from one process to the next, with 400 they range 350 to 394 us.
const (
	setupBudget = 500 * time.Millisecond
	minSetups   = 15
	maxSetups   = 400
)

// sampleSetups calls setUp repeatedly within the budget above, after a
// forced collection each time, and records how long each call took.
// setUp returns the function that discards what it built.
func (h *harness) sampleSetups(setUp func() (discard func(), err error)) {
	name := h.metricName("setup_s", "build.cosim_s")
	var took []float64
	stop := h.sampleHost()
	start := time.Now()
	budget := min(setupBudget, time.Duration(h.seconds*float64(time.Second))/10)
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < budget); i++ {
		runtime.GC()
		t0 := time.Now()
		discard, err := setUp()
		took = append(took, time.Since(t0).Seconds())
		if err != nil {
			stop()
			h.attempt("set-up", []string{err.Error()})
			return
		}
		discard()
	}
	slow := stop()
	for _, t := range took {
		if h.traced {
			h.observe(name, t) // per-layer times are reported as measured
		} else {
			h.observeScaled(name, t/slow, t)
		}
	}
}

// sampleJobSetups samples the set-up of every job in turn.
func (h *harness) sampleJobSetups(jobs []simJob) {
	next := 0
	h.sampleSetups(func() (func(), error) {
		job := jobs[next%len(jobs)]
		next++
		wl, err := workload.ByName(job.kernel, job.tiles, job.ops, job.seed)
		if err != nil {
			return nil, err
		}
		cs, err := repro.BuildCosim(job.config(), job.mode, wl)
		if err != nil {
			return nil, err
		}
		return cs.Close, nil
	})
}

// runDirect is the shape of the in-process workloads: fixed-size passes
// repeated until the window is spent (at least three), medians reported.
// The traced run makes one untraced and one traced pass instead and
// reports the per-layer split of the traced one.
func (h *harness) runDirect(jobs []simJob) (last []sessionResult) {
	if h.traced {
		plain := h.pass(jobs, false)
		traced := h.pass(jobs, true)
		h.observeLayers(plain, traced)
		return plain
	}
	h.sampleJobSetups(jobs)
	h.repeat(func() []sample {
		last = h.pass(jobs, false)
		samples := make([]sample, len(last))
		for i, r := range last {
			samples[i] = sample{r.setup, r.wall, uint64(r.res.ExecCycles), r.liveMB}
		}
		return samples
	})
	return last
}

// observeLayers turns a traced pass (and the untraced pass beside it)
// into the per-layer metrics.
func (h *harness) observeLayers(plain, traced []sessionResult) {
	plainWall, _ := passTotals(plain)
	wall, cycles := passTotals(traced)
	if plainWall > 0 {
		h.observe("trace.overhead_pct", (wall.Seconds()/plainWall.Seconds()-1)*100)
	}
	if wall <= 0 || cycles == 0 {
		return
	}
	W := wall.Seconds()
	var gen, build time.Duration
	var sum layerTimes
	var tileCycles, retired, msgs, hits, misses float64
	var skewSum float64
	var maxSkew sim.Cycle
	backend := map[string]*struct{ inject, advance, drain time.Duration }{
		"noc": {}, "abstractnet": {}, "calib": {},
	}
	var absPackets uint64
	var dramLatW, dramRowW float64
	for _, r := range traced {
		gen += r.genWall
		build += r.buildWall
		l := r.layers
		if l == nil {
			continue
		}
		sum.tick += l.tick
		sum.netWall += l.netWall
		sum.inject += l.inject
		sum.advance += l.advance
		sum.drain += l.drain
		sum.dram += l.dram
		sum.quanta += l.quanta
		sum.packets += l.packets
		b := backend[l.layer]
		b.inject += l.inject
		b.advance += l.advance
		b.drain += l.drain
		if l.layer == "abstractnet" {
			absPackets += l.packets
		}
		if l.hasActivity {
			sum.hasActivity = true
			sum.activity.Stepped += l.activity.Stepped
			sum.activity.Skipped += l.activity.Skipped
			sum.activity.ActiveSum += l.activity.ActiveSum
			sum.activity.PoolHits += l.activity.PoolHits
			sum.activity.PoolMisses += l.activity.PoolMisses
			sum.activity.Routers = l.activity.Routers
		}
		sum.flits += l.flits
		sum.retunes += l.retunes
		sum.residual += l.residual
		sum.drift += l.drift
		sum.dramStats.completions += l.dramStats.completions
		dramLatW += l.dramStats.avgLat * l.dramStats.completions
		dramRowW += l.dramStats.rowHit * l.dramStats.completions
		tileCycles += float64(r.job.tiles) * float64(r.res.ExecCycles)
		retired += float64(r.res.Retired)
		skewSum += r.res.AvgSkew * float64(r.res.Packets)
		maxSkew = max(maxSkew, r.res.MaxSkew)
		msgs += float64(r.msgs)
		hits += float64(r.l1Hits)
		misses += float64(r.l1Misses)
	}
	n := float64(len(traced))

	h.observe("build.workload_s", gen.Seconds()/n)
	h.observe("build.cosim_s", build.Seconds()/n)

	// Inject runs inside the system's tick (the send callback), so the
	// tick's self time excludes it.
	tickSelf := sum.tick - sum.inject
	h.observe("fullsys.tick_s", sum.tick.Seconds())
	h.observe("fullsys.tick_share", tickSelf.Seconds()/W)
	h.observe("fullsys.ns_per_tile_cycle", float64(tickSelf.Nanoseconds())/tileCycles)
	h.observe("fullsys.retired_ops", retired)
	h.observe("fullsys.msgs_sent", msgs)
	if hits+misses > 0 {
		h.observe("fullsys.l1_hit_rate", hits/(hits+misses))
	}

	exchange := sum.exchange()
	exchangeSelf := exchange - sum.drain
	h.observe("core.exchange_s", exchange.Seconds())
	h.observe("core.exchange_share", exchangeSelf.Seconds()/W)
	h.observe("core.quanta", float64(sum.quanta))
	if sum.quanta > 0 {
		h.observe("core.exchange_ns_per_quantum", float64(exchange.Nanoseconds())/float64(sum.quanta))
	}
	if sum.packets > 0 {
		h.observe("core.avg_skew_cyc", skewSum/float64(sum.packets))
	}
	h.observe("core.max_skew_cyc", float64(maxSkew))

	nb := backend["noc"]
	nocBusy := nb.inject + nb.advance + nb.drain
	h.observe("noc.advance_s", nb.advance.Seconds())
	h.observe("noc.inject_s", nb.inject.Seconds())
	h.observe("noc.drain_s", nb.drain.Seconds())
	h.observe("noc.share", nocBusy.Seconds()/W)
	if sum.hasActivity {
		a := sum.activity
		if rc := float64(a.Stepped) * float64(a.Routers); rc > 0 {
			h.observe("noc.ns_per_router_cycle", float64(nb.advance.Nanoseconds())/rc)
		}
		h.observe("noc.cycles_stepped", float64(a.Stepped))
		h.observe("noc.cycles_skipped", float64(a.Skipped))
		h.observe("noc.active_occupancy", a.Occupancy())
		h.observe("noc.pool_hit_rate", a.PoolHitRate())
	}
	if sum.flits > 0 {
		h.observe("noc.flits_switched", float64(sum.flits))
		h.observe("noc.ns_per_flit", float64(nocBusy.Nanoseconds())/float64(sum.flits))
	}

	ab := backend["abstractnet"]
	absBusy := ab.inject + ab.advance + ab.drain
	h.observe("abstractnet.inject_s", ab.inject.Seconds())
	h.observe("abstractnet.advance_s", ab.advance.Seconds())
	h.observe("abstractnet.drain_s", ab.drain.Seconds())
	h.observe("abstractnet.share", absBusy.Seconds()/W)
	if absPackets > 0 {
		h.observe("abstractnet.ns_per_packet", float64(absBusy.Nanoseconds())/float64(absPackets))
	}

	cb := backend["calib"]
	calBusy := cb.inject + cb.advance + cb.drain
	h.observe("calib.backend_s", calBusy.Seconds())
	h.observe("calib.share", calBusy.Seconds()/W)
	h.observe("calib.retunes", float64(sum.retunes))
	h.observe("calib.residual_mean", sum.residual/n)
	h.observe("calib.drift_mean", sum.drift/n)

	h.observe("dram.advance_s", sum.dram.Seconds())
	h.observe("dram.share", sum.dram.Seconds()/W)
	h.observe("dram.completions", sum.dramStats.completions)
	if c := sum.dramStats.completions; c > 0 {
		h.observe("dram.row_hit_rate", dramRowW/c)
		h.observe("dram.avg_latency_cyc", dramLatW/c)
		h.observe("dram.ns_per_completion", float64(sum.dram.Nanoseconds())/c)
	}

	// Run's own loop (progress hook, the watchdog's sweep over every
	// tile's retired count) is what the run's wall holds beyond tick +
	// NetWall. With it the self times partition the wall, so the sum only
	// strays from 1 through clock granularity; the real guard is that no
	// self time is negative, which is what a child outgrowing its parent
	// (or a timer the simulator stopped maintaining) looks like.
	loop := wall - sum.tick - sum.netWall
	h.observe("core.loop_share", loop.Seconds()/W)
	selves := map[string]time.Duration{
		"fullsys": tickSelf, "noc": nocBusy, "abstractnet": absBusy, "calib": calBusy,
		"dram": sum.dram, "core.exchange": exchangeSelf, "core.loop": loop,
	}
	var total time.Duration
	var problems []string
	for _, name := range []string{"fullsys", "noc", "abstractnet", "calib", "dram", "core.exchange", "core.loop"} {
		total += selves[name]
		if selves[name].Seconds() < -0.01*W {
			problems = append(problems, fmt.Sprintf("%s has negative self time %v", name, selves[name]))
		}
	}
	h.observe("trace.share_sum", total.Seconds()/W)
	h.attempt("layer shares", append(problems, shareProblems(total.Seconds()/W)...))

	// Host allocation is the simulator's own, so it is read off the
	// untraced pass: the observer allocates per span.
	var allocMB float64
	var gcs uint32
	for _, r := range plain {
		allocMB += r.allocMB
		gcs += r.gcCycles
	}
	if _, plainCycles := passTotals(plain); plainCycles > 0 {
		h.observe("host.alloc_mb_per_mcycle", allocMB/float64(plainCycles)*1e6)
	}
	h.observe("host.gc_cycles", float64(gcs))
}

// shareProblems reports a per-layer split that does not add up to the
// run's wall time within 5 %.
func shareProblems(sum float64) []string {
	if math.Abs(sum-1) > 0.05 {
		return []string{fmt.Sprintf("per-layer shares sum to %.3f of the run wall, want 1 within 0.05", sum)}
	}
	return nil
}

// accuracyKernels are the kernels the accuracy numbers average over,
// and accuracyModes the abstractions compared with the synchronous
// reference (the first entry).
var (
	accuracyKernels = []string{"fft", "radix"}
	accuracyModes   = []repro.Mode{repro.ModeSynchronous, repro.ModeAbstract, repro.ModeReciprocal, repro.ModeCalibrated}
)

// accuracyJobs is the accuracy sweep at one size: per kernel, the
// synchronous reference and the three abstractions.
func accuracyJobs(prefix string, tiles, ops int, seed uint64) []simJob {
	var jobs []simJob
	for _, k := range accuracyKernels {
		for _, m := range accuracyModes {
			jobs = append(jobs, simJob{
				label:  fmt.Sprintf("%s/%s/%s", prefix, k, m),
				kernel: k, tiles: tiles, ops: ops, mode: m, seed: seed,
			})
		}
	}
	return jobs
}

// observeAccuracy reports the accuracy of one accuracyJobs pass. The
// per-layer form is the paper's: mean |x - synchronous| / synchronous in
// percent (expt.FigureF4/F5). The end-to-end form is the agreement
// 100 * min(x, ref) / max(x, ref): it is 100 - error for small errors,
// stays positive when an abstraction doubles the execution time, and a
// relative bound on it is a bound in points.
func (h *harness) observeAccuracy(rs []sessionResult) {
	type pair struct{ lat, exec float64 }
	errs := map[repro.Mode]*pair{}
	agree := map[repro.Mode]*pair{}
	for _, m := range accuracyModes[1:] {
		errs[m], agree[m] = &pair{}, &pair{}
	}
	per := len(accuracyModes)
	kernels := 0
	for i := 0; i+per <= len(rs); i += per {
		truth := rs[i].res
		if truth.AvgLatency <= 0 || truth.ExecCycles == 0 {
			continue
		}
		kernels++
		for k, m := range accuracyModes[1:] {
			res := rs[i+1+k].res
			if res.Retired != truth.Retired {
				h.attempt(rs[i+1+k].job.label+" program", []string{fmt.Sprintf(
					"retired %d operations, the synchronous reference %d: not the same program", res.Retired, truth.Retired)})
			}
			errs[m].lat += stats.AbsPctErr(res.AvgLatency, truth.AvgLatency)
			errs[m].exec += stats.AbsPctErr(float64(res.ExecCycles), float64(truth.ExecCycles))
			agree[m].lat += agreement(res.AvgLatency, truth.AvgLatency)
			agree[m].exec += agreement(float64(res.ExecCycles), float64(truth.ExecCycles))
		}
	}
	if kernels == 0 {
		return
	}
	n := float64(kernels)
	if h.traced {
		h.observe("accuracy.lat_err_pct_abstract", errs[repro.ModeAbstract].lat/n)
		h.observe("accuracy.lat_err_pct_reciprocal", errs[repro.ModeReciprocal].lat/n)
		h.observe("accuracy.lat_err_pct_calibrated", errs[repro.ModeCalibrated].lat/n)
		h.observe("accuracy.exec_err_pct_reciprocal", errs[repro.ModeReciprocal].exec/n)
		h.observe("accuracy.exec_err_pct_calibrated", errs[repro.ModeCalibrated].exec/n)
		return
	}
	h.observe("lat_agree_pct_abstract", agree[repro.ModeAbstract].lat/n)
	h.observe("lat_agree_pct_reciprocal", agree[repro.ModeReciprocal].lat/n)
	h.observe("lat_agree_pct_calibrated", agree[repro.ModeCalibrated].lat/n)
	h.observe("exec_agree_pct_reciprocal", agree[repro.ModeReciprocal].exec/n)
	h.observe("exec_agree_pct_calibrated", agree[repro.ModeCalibrated].exec/n)
}

// agreement is 100 * min/max of two positive numbers.
func agreement(x, ref float64) float64 {
	if x <= 0 || ref <= 0 {
		return 0
	}
	return 100 * math.Min(x, ref) / math.Max(x, ref)
}

// accuracyGuard rides on every workload that is not itself the accuracy
// sweep: a small fixed-size sweep on the run's seed, outside the timed
// window, so every speed number is printed beside an accuracy number
// from the same binary.
func (h *harness) accuracyGuard() {
	sp := h.tr.begin("accuracy guard", "harness", -1)
	defer h.tr.end(sp)
	var rs []sessionResult
	for _, job := range accuracyJobs("guard", h.sz.guardTiles, h.sz.guardOps, h.seed) {
		r := h.runSession(job, false, sp)
		h.attempt(job.label, r.problems)
		rs = append(rs, r)
	}
	h.observeAccuracy(rs)
}
