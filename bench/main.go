// Command bench is the repository's benchmark: it measures the
// simulator from outside, by timing calls into the public facade
// (repro.Build*, core.Cosim, ckpt, cosimd over loopback HTTP), checks
// that the simulated outputs are right, and prints every metric by name
// and unit. BENCHMARK.json at the repository root names the workloads,
// the metrics and the regression bound of each; README.md in this
// directory explains them.
//
//	go run ./bench -workload recip256                 # end-to-end metrics
//	go run ./bench -workload recip256 -trace 1        # per-layer metrics + bench/out/recip256.trace.json
//	go run ./bench -compare a.jsonl b.jsonl           # two sets of runs against the bounds
//	go run ./bench -spec                              # BENCHMARK.json from the tables in this package
//
// The last line of standard output is one JSON object: correct,
// attempted, failed, metrics.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run (see -list)")
	// The default seed is deliberately not the 42 that EXPERIMENTS.md and
	// the calibration constants were tuned on.
	seed := fs.Uint64("seed", 7, "seed every generated input derives from")
	seconds := fs.Float64("seconds", runSeconds, "measurement window in seconds")
	trace := fs.Int("trace", 0, "1: the traced run (per-layer metrics, writes <out>/<workload>.trace.json); 0: end-to-end metrics")
	out := fs.String("out", filepath.Join("bench", "out"), "directory for records, the run log and traces")
	list := fs.Bool("list", false, "list workloads and exit")
	spec := fs.Bool("spec", false, "print BENCHMARK.json and exit")
	compare := fs.Bool("compare", false, "compare two run logs: -compare a.jsonl b.jsonl")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *spec:
		if err := writeSpec(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		return 0
	case *list:
		for _, w := range workloads {
			fmt.Printf("%-12s %s\n", w.Name, w.Why())
		}
		return 0
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two run logs")
			return 2
		}
		return compareLogs(os.Stdout, fs.Arg(0), fs.Arg(1))
	}
	wl := workloadByName(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (try -list)\n", *name)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}

	// Two threads at most: the numbers must repeat on a two-CPU host,
	// and the load generator never runs more clients than that.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	if err := os.MkdirAll(*out, 0o777); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	h := newHarness(wl, fullSizes, *seed, *seconds, *trace == 1, *out)
	h.hostSlowness()
	wl.run(h)
	h.hostSlowness()
	rec := h.finish()
	if err := h.save(rec); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	rec.print(os.Stdout)
	return 0
}
