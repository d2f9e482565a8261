// Quickstart: run one workload on a 64-core target under three network
// abstractions and compare what each one tells you.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

func main() {
	const tiles = 64
	cfg := repro.DefaultConfig(tiles)

	var results []core.Result
	for _, mode := range []repro.Mode{
		repro.ModeAbstract,    // the coarse analytical model
		repro.ModeReciprocal,  // the paper's co-simulation
		repro.ModeSynchronous, // cycle-exact ground truth
	} {
		// The workload must be rebuilt per run: its operation stream is
		// deterministic, so every mode executes the same program.
		wl := workload.NewFFT(tiles, 500, 42)
		cs, err := repro.BuildCosim(cfg, mode, wl)
		if err != nil {
			log.Fatal(err)
		}
		// The table's sys-wall/net-wall columns are measured only when
		// an observer asks for host timing.
		cs.SetObserver(obs.New(obs.Options{Wall: true}))
		res := cs.Run(10_000_000)
		cs.Net.Close()
		if !res.Finished {
			log.Fatalf("%s did not finish", mode)
		}
		results = append(results, res)
	}

	core.LatencyTable("quickstart: fft on 64 tiles", results).WriteText(os.Stdout)

	abs, rec, truth := results[0], results[1], results[2]
	fmt.Printf("\nabstract model latency error:   %+.1f%%\n",
		(abs.AvgLatency/truth.AvgLatency-1)*100)
	fmt.Printf("reciprocal co-sim latency error: %+.1f%%\n",
		(rec.AvgLatency/truth.AvgLatency-1)*100)
}
