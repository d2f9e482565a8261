// Command nocsim runs the cycle-level NoC standalone under synthetic
// traffic and prints a load sweep (the classic load-latency curve),
// optionally comparing execution engines.
//
// Example:
//
//	nocsim -mesh 8 -pattern transpose -rates 0.02,0.1,0.2,0.3
//	nocsim -mesh 16 -workers 8 -cycles 5000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/noc/topology"
	"repro/internal/stats"
	"repro/internal/traffic"
)

func main() {
	var (
		side    = flag.Int("mesh", 8, "mesh side (side x side routers)")
		pattern = flag.String("pattern", "uniform", "traffic pattern: "+strings.Join(traffic.Names(), "|"))
		rates   = flag.String("rates", "0.02,0.05,0.10,0.15,0.20,0.25,0.30", "injection rates to sweep")
		cycles  = flag.Int("cycles", 3000, "measured cycles per point")
		warmup  = flag.Int("warmup", 500, "warmup cycles per point")
		workers = flag.Int("workers", 1, "shard the router sweep across this many workers (1 = one shard on the calling goroutine)")
		vcs     = flag.Int("vcs", 2, "virtual channels per virtual network")
		depth   = flag.Int("buf", 4, "VC buffer depth in flits")
		routing = flag.String("routing", "xy", "routing: xy|yx|oddeven")
		seed    = flag.Uint64("seed", 11, "traffic seed")
		power   = flag.Bool("power", false, "print the energy/power report for the last sweep point")
		heatmap = flag.Bool("heatmap", false, "print the router-load heatmap for the last sweep point")
		replay  = flag.String("replay", "", "replay a JSON-lines injection trace instead of synthetic traffic")
	)
	flag.Parse()

	if *replay != "" {
		replayTrace(*replay, *side, *vcs, *depth, *routing, *workers, *power, *heatmap)
		return
	}

	var lastNet *noc.Network
	t := stats.NewTable(
		fmt.Sprintf("nocsim: %dx%d mesh, %s traffic, %s routing, %d workers",
			*side, *side, *pattern, *routing, *workers),
		"rate", "avg-lat", "net-lat", "queue-lat", "p95", "avg-hops", "delivered", "link-util", "wall-ms")

	for _, rs := range strings.Split(*rates, ",") {
		rate, err := strconv.ParseFloat(strings.TrimSpace(rs), 64)
		if err != nil {
			fatal(fmt.Errorf("bad rate %q: %v", rs, err))
		}
		m := topology.NewMesh(*side, *side, 1)
		var rt topology.Routing
		switch *routing {
		case "xy":
			rt = topology.NewXY(m)
		case "yx":
			rt = topology.NewYX(m)
		case "oddeven":
			rt = topology.NewOddEven(m)
		default:
			fatal(fmt.Errorf("unknown routing %q", *routing))
		}
		cfg := noc.DefaultConfig()
		cfg.VCsPerVNet = *vcs
		cfg.BufDepth = *depth
		net, err := noc.New(cfg, m, rt, noc.WithWorkers(*workers))
		if err != nil {
			fatal(err)
		}
		pat, err := traffic.ByName(*pattern, m.NumTerminals(), *side)
		if err != nil {
			fatal(err)
		}
		gen := traffic.Generator{Pattern: pat, Rate: rate, Seed: *seed}
		start := time.Now() //simlint:allow wallclock host speed measurement around the run, outside simulated state
		tr := gen.RunOpenLoop(net, *warmup, *cycles, 50000)
		wall := time.Since(start) //simlint:allow wallclock host speed measurement around the run, outside simulated state
		if lastNet != nil {
			lastNet.Close()
		}
		t.AddRow(rate, tr.Mean(), tr.MeanNetwork(), tr.MeanQueueing(), tr.Percentile(0.95),
			tr.MeanHops(), tr.Count(), net.AvgLinkUtilization(),
			float64(wall.Microseconds())/1000)
		lastNet = net
	}
	t.WriteText(os.Stdout)
	if *power && lastNet != nil {
		fmt.Println()
		lastNet.Energy(noc.DefaultEnergy()).Table("energy at the last sweep point", 2.0).WriteText(os.Stdout)
	}
	if *heatmap && lastNet != nil {
		fmt.Println()
		fmt.Print(lastNet.Heatmap())
	}
	if lastNet != nil {
		lastNet.Close()
	}
}

// replayTrace drives the configured network open-loop with a captured
// trace file (the in-vacuum methodology; see experiment F2).
func replayTrace(path string, side, vcs, depth int, routing string, workers int, power, heatmap bool) {
	f, err := os.Open(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	m := topology.NewMesh(side, side, 1)
	trace, err := core.LoadTrace(f, m.NumTerminals())
	if err != nil {
		fatal(err)
	}
	cfg := noc.DefaultConfig()
	cfg.VCsPerVNet = vcs
	cfg.BufDepth = depth
	var rt topology.Routing
	switch routing {
	case "xy":
		rt = topology.NewXY(m)
	case "yx":
		rt = topology.NewYX(m)
	case "oddeven":
		rt = topology.NewOddEven(m)
	default:
		fatal(fmt.Errorf("unknown routing %q", routing))
	}
	net, err := noc.New(cfg, m, rt, noc.WithWorkers(workers))
	if err != nil {
		fatal(err)
	}
	defer net.Close()
	start := time.Now() //simlint:allow wallclock host speed measurement around the run, outside simulated state
	tr := core.Replay(trace, net, 1_000_000)
	wall := time.Since(start) //simlint:allow wallclock host speed measurement around the run, outside simulated state
	t := stats.NewTable(fmt.Sprintf("nocsim replay: %d packets from %s", len(trace), path),
		"avg-lat", "net-lat", "queue-lat", "p95", "avg-hops", "link-util", "wall-ms")
	t.AddRow(tr.Mean(), tr.MeanNetwork(), tr.MeanQueueing(), tr.Percentile(0.95),
		tr.MeanHops(), net.AvgLinkUtilization(), float64(wall.Microseconds())/1000)
	t.WriteText(os.Stdout)
	if power {
		fmt.Println()
		net.Energy(noc.DefaultEnergy()).Table("replay energy", 2.0).WriteText(os.Stdout)
	}
	if heatmap {
		fmt.Println()
		fmt.Print(net.Heatmap())
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "nocsim:", err)
	os.Exit(1)
}
