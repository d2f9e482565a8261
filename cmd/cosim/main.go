// Command cosim runs one co-simulation: a statistical multithreaded
// workload on the target multicore, with the NoC simulated at the
// chosen abstraction level.
//
// Example:
//
//	cosim -tiles 64 -workload fft -mode reciprocal -quantum 64
//	cosim -tiles 256 -workload radix -mode reciprocal-gpu
package main

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers for -pprof
	"os"
	"strings"
	"time"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/workload"
)

func main() {
	var (
		tiles     = flag.Int("tiles", 64, "number of tiles (cores)")
		wlName    = flag.String("workload", "fft", "workload kernel: fft|lu|barnes|ocean|radix|water|raytrace|canneal")
		mode      = flag.String("mode", "reciprocal", "network abstraction: "+modeNames())
		quantum   = flag.Int("quantum", 64, "synchronization quantum in cycles")
		ops       = flag.Int("ops", 1000, "memory operations per core")
		seed      = flag.Uint64("seed", 42, "workload seed")
		limit     = flag.Uint64("limit", 50_000_000, "cycle limit")
		torus     = flag.Bool("torus", false, "use a torus instead of a mesh")
		routing   = flag.String("routing", "xy", "mesh routing: xy|yx|oddeven")
		memModel  = flag.String("mem", "fixed", "memory model: fixed|ddr|abstract|calibrated")
		nocWork   = flag.Int("noc-workers", 0, "shard the detailed NoC sweep across this many workers in every detailed mode (0/1 = one shard on the calling goroutine; bit-identical results)")
		router    = flag.String("router", "vc", "router architecture for detailed modes: vc|deflect")
		sysStats  = flag.Bool("sysstats", false, "print system-level execution statistics")
		saveTrace = flag.String("savetrace", "", "write the injection trace of the first mode to this file (JSON lines)")
		prefetch  = flag.Int("prefetch", 0, "next-line L1 prefetch degree (0 = off)")
		ckptPath  = flag.String("checkpoint", "", "checkpoint file (overwritten unless -resume restores it first)")
		ckptEvery = flag.Uint64("checkpoint-every", 0, "rewrite -checkpoint every N cycles (0 = never)")
		resume    = flag.Bool("resume", false, "restore -checkpoint before running, when the file exists")
		traceOut  = flag.String("trace-out", "", "write a Chrome trace-event JSON file (virtual cycles; open in Perfetto)")
		traceWall = flag.Bool("trace-wall", false, "annotate trace spans with host wall-clock cost (nondeterministic annotations)")
		metricOut = flag.String("metrics-out", "", "write the metrics registry as JSON")
		obsTable  = flag.String("obs-table", "", "print observability tables after each mode: comma list of metrics,calib")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
		progress  = flag.Duration("progress", 0, "print a progress heartbeat (sim-cycles/sec, ETA) to stderr at this interval (0 = off)")
		noFF      = flag.Bool("no-fastforward", false, "disable NoC activity gating and idle-cycle fast-forward (exhaustive per-cycle sweep; bit-identical results, for bisecting)")
		forkSweep = flag.Int("fork-sweep", 0, "warm-fork sweep: simulate this percentage of the workload once (first -mode backend), then fork the warmed system into every -mode instead of repeating the warmup per mode (0 = off)")
	)
	flag.Parse()
	if *ckptPath == "" && (*ckptEvery > 0 || *resume) {
		fatal(fmt.Errorf("-checkpoint-every and -resume require -checkpoint"))
	}
	if *ckptPath != "" && *saveTrace != "" {
		fatal(fmt.Errorf("-checkpoint cannot be combined with -savetrace"))
	}
	if *forkSweep < 0 || *forkSweep >= 100 {
		fatal(fmt.Errorf("-fork-sweep %d: want a warmup percentage in 0..99", *forkSweep))
	}
	if *forkSweep > 0 && (*ckptPath != "" || *saveTrace != "") {
		fatal(fmt.Errorf("-fork-sweep cannot be combined with -checkpoint or -savetrace"))
	}
	wantMetricsTable, wantCalibTable := false, false
	for _, part := range strings.Split(*obsTable, ",") {
		switch strings.TrimSpace(part) {
		case "":
		case "metrics":
			wantMetricsTable = true
		case "calib":
			wantCalibTable = true
		default:
			fatal(fmt.Errorf("-obs-table %q: want a comma list of metrics,calib", *obsTable))
		}
	}
	if *pprofAddr != "" {
		go func() {
			if err := http.ListenAndServe(*pprofAddr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "cosim: pprof:", err)
			}
		}()
	}

	cfg := repro.DefaultConfig(*tiles)
	cfg.Quantum = *quantum
	cfg.Torus = *torus
	cfg.Routing = *routing
	cfg.System.MemModel = *memModel
	cfg.System.PrefetchDegree = *prefetch
	cfg.RouterArch = *router
	cfg.NocWorkers = *nocWork
	cfg.DisableGating = *noFF

	// -fork-sweep: one shared warmup, forked into every mode. The warm
	// simulation retires the first -fork-sweep percent of the per-core
	// op budget on the first mode's backend, drains the network
	// (in-flight packets cannot be transplanted across backends), and
	// every mode — including the first — then forks the warmed system
	// instead of re-simulating the warmup.
	var warm *core.Cosim
	if *forkSweep > 0 {
		first := strings.TrimSpace(strings.Split(*mode, ",")[0])
		wl, err := workload.ByName(*wlName, *tiles, *ops, *seed)
		if err != nil {
			fatal(err)
		}
		warm, err = repro.BuildCosim(cfg, repro.Mode(first), wl)
		if err != nil {
			fatal(err)
		}
		warmOps := uint64(*tiles) * uint64(*ops) * uint64(*forkSweep) / 100
		start := time.Now() //simlint:allow wallclock reporting host warmup time, not simulated state
		for warm.Sys.Retired() < warmOps && !warm.Sys.Done() && warm.Cycle() < sim.Cycle(*limit) {
			warm.Step()
		}
		if !warm.RunToQuiescence(warm.Cycle(), sim.Cycle(*limit)) || warm.Sys.Done() {
			fatal(fmt.Errorf("-fork-sweep %d%%: warmup consumed the whole run", *forkSweep))
		}
		defer warm.Close()
		warmWall := time.Since(start).Round(time.Millisecond) //simlint:allow wallclock reporting host warmup time, not simulated state
		fmt.Printf("fork-sweep: warmed %s once to cycle %d (%d ops retired, %s); forking each mode\n",
			first, warm.Cycle(), warm.Sys.Retired(), warmWall)
	}

	var results []core.Result
	allFinished := true
	for mi, m := range strings.Split(*mode, ",") {
		m = strings.TrimSpace(m)
		var cs *core.Cosim
		var rec *core.Recorder
		var err error
		switch {
		case *saveTrace != "" && mi == 0:
			// Each mode reruns the identical deterministic workload.
			wl, err2 := workload.ByName(*wlName, *tiles, *ops, *seed)
			if err2 != nil {
				fatal(err2)
			}
			backend, err2 := repro.BuildBackend(cfg, repro.Mode(m))
			if err2 != nil {
				fatal(err2)
			}
			rec = core.NewRecorder(backend)
			cs, err = core.Build(cfg.System, wl, rec, cfg.Quantum)
			if err != nil {
				fatal(err)
			}
		case warm != nil:
			cs, err = repro.ForkCosim(warm, cfg, repro.Mode(m))
			if err != nil {
				fatal(err)
			}
		default:
			wl, err2 := workload.ByName(*wlName, *tiles, *ops, *seed)
			if err2 != nil {
				fatal(err2)
			}
			cs, err = repro.BuildCosim(cfg, repro.Mode(m), wl)
			if err != nil {
				fatal(err)
			}
		}
		// With nothing else asked for, the observer only times the run:
		// the table's sys-wall/net-wall columns are measured under Wall
		// alone (a deterministic -trace-out without -trace-wall leaves
		// them "-").
		opts := obs.Options{Wall: true}
		if *traceOut != "" || *metricOut != "" || wantMetricsTable || wantCalibTable {
			opts = obs.Options{
				Trace:   *traceOut != "",
				Metrics: *metricOut != "" || wantMetricsTable,
				Calib:   true,
				Wall:    *traceWall,
			}
		}
		ob := obs.New(opts)
		cs.SetObserver(ob)
		if *progress > 0 {
			hb := obs.NewHeartbeat(os.Stderr, *progress, sim.Cycle(*limit))
			cs.Progress = hb.Tick
		}
		var res core.Result
		if *ckptPath == "" {
			res = cs.Run(sim.Cycle(*limit))
		} else {
			// Per-mode checkpoint files when several modes run; the
			// config digest rejects a stale file from the wrong mode.
			path := *ckptPath
			if strings.Contains(*mode, ",") {
				path += "." + m
			}
			if !*resume {
				os.Remove(path)
			}
			digest := repro.ConfigDigest(cfg, repro.Mode(m),
				fmt.Sprintf("%s-%d-%d-%d", *wlName, *tiles, *ops, *seed))
			res, err = repro.RunResumable(cs, sim.Cycle(*limit), path, sim.Cycle(*ckptEvery), digest)
			if err != nil {
				fatal(err)
			}
			if err := repro.SaveCheckpoint(path, cs, digest); err != nil {
				fatal(err)
			}
		}
		if rec != nil {
			f, err := os.Create(*saveTrace)
			if err != nil {
				fatal(err)
			}
			if err := core.SaveTrace(f, rec.Trace); err != nil {
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("wrote %d trace entries to %s\n", len(rec.Trace), *saveTrace)
		}
		results = append(results, res)
		allFinished = allFinished && res.Finished
		if *memModel != "fixed" {
			d := cs.Sys.DRAMStats()
			fmt.Printf("mem[%s/%s]: reads=%d writes=%d row-hit=%.1f%% avg-lat=%.1f queue=%.2f\n",
				m, *memModel, d.Reads, d.Writes, d.RowHitRate()*100, d.AvgLatency, d.AvgQueueDepth)
		}
		if *sysStats {
			cs.Sys.StatsTable("system statistics (" + m + ")").WriteText(os.Stdout)
			fmt.Println()
		}
		// Per-mode output files when several modes run, like the
		// checkpoint files above.
		multi := strings.Contains(*mode, ",")
		if *traceOut != "" {
			if err := writeFileWith(modePath(*traceOut, m, multi), ob.WriteTrace); err != nil {
				fatal(err)
			}
		}
		if *metricOut != "" {
			if err := writeFileWith(modePath(*metricOut, m, multi), ob.WriteMetrics); err != nil {
				fatal(err)
			}
		}
		if wantMetricsTable {
			ob.MetricsTable("metrics (" + m + ")").WriteText(os.Stdout)
			fmt.Println()
		}
		if wantCalibTable {
			ob.CalibTable("calibration retunes (" + m + ")").WriteText(os.Stdout)
			fmt.Println()
		}
		cs.Close()
	}
	core.LatencyTable(fmt.Sprintf("cosim: %s on %d tiles", *wlName, *tiles),
		results).WriteText(os.Stdout)
	if !allFinished {
		fatal(fmt.Errorf("a workload did not finish within %d cycles", *limit))
	}
}

// modeNames lists every co-simulation mode for the -mode help text.
func modeNames() string {
	var names []string
	for _, m := range repro.Modes() {
		names = append(names, string(m))
	}
	return strings.Join(names, "|")
}

// modePath suffixes an output path with the mode name when several
// modes run in one invocation (same convention as checkpoint files).
func modePath(path, mode string, multi bool) string {
	if multi {
		return path + "." + mode
	}
	return path
}

// writeFileWith creates path and streams write into it.
func writeFileWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosim:", err)
	os.Exit(1)
}
