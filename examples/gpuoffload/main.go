// Gpuoffload: reciprocal co-simulation with the NoC quantum offloaded
// to the modelled GPU coprocessor, at paper-scale target sizes.
//
// Each size runs once. CPU total is that run's measured host time; GPU
// total is its measured system time plus the device time internal/gpu
// prices from the run's network counters (no CUDA hardware in this
// reproduction — see DESIGN.md). The reduction grows with target size
// because per-cycle device cost is nearly constant below one occupancy
// wave while the CPU's NoC cost grows with the router count — the
// paper's 16% (256 cores) / 65% (512 cores) mechanism.
//
//	go run ./examples/gpuoffload            # 64 and 256 cores
//	go run ./examples/gpuoffload -big       # adds the 512-core target
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro"
	"repro/internal/gpu"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/workload"
)

func main() {
	big := flag.Bool("big", false, "include the 512-core target (slow)")
	ops := flag.Int("ops", 200, "memory ops per core")
	flag.Parse()

	sizes := []int{64, 256}
	if *big {
		sizes = append(sizes, 512)
	}

	t := stats.NewTable("reciprocal co-simulation: CPU vs CPU+GPU NoC execution",
		"cores", "cpu-total-ms", "gpu-total-ms", "device-ms", "reduction-%", "breakdown")
	for _, size := range sizes {
		cfg := repro.DefaultConfig(size)
		cfg.Quantum = 256 // large quanta amortize kernel launches

		cs, err := repro.BuildCosim(cfg, repro.ModeReciprocal, workload.NewRadix(size, *ops, 42))
		if err != nil {
			log.Fatal(err)
		}
		// Host time is measured only when an observer asks for it.
		cs.SetObserver(obs.New(obs.Options{Wall: true}))
		res := cs.Run(100_000_000)
		if !res.Finished {
			log.Fatalf("%d cores: reciprocal did not finish", size)
		}
		net := cs.Net.(*noc.Network)
		dev := gpu.DefaultDevice().Cost(net.ActivityStats(),
			uint64(cs.Cycle())/uint64(cfg.Quantum), net.Injected(), net.Delivered())
		cs.Close()

		cpu := res.SysWall + res.NetWall
		gpuTotal := res.SysWall + time.Duration(dev.TotalNs())
		t.AddRow(size,
			float64(cpu.Microseconds())/1000,
			float64(gpuTotal.Microseconds())/1000,
			dev.TotalNs()/1e6,
			stats.ErrorReduction(float64(cpu), float64(gpuTotal)),
			fmt.Sprintf("launch %.0f%% compute %.0f%% xfer %.0f%%",
				dev.LaunchNs/dev.TotalNs()*100, dev.ComputeNs/dev.TotalNs()*100,
				dev.TransferNs/dev.TotalNs()*100))
	}
	t.WriteText(os.Stdout)
	fmt.Println("\nThe offload gains on the CPU as the network grows: per-cycle device cost")
	fmt.Println("is flat below one occupancy wave, while router work scales with the mesh.")
}
