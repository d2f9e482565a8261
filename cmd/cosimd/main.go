// Command cosimd serves co-simulations: a long-running server that
// multiplexes many concurrent sessions over a bounded worker pool with
// fair-share scheduling, two-tier eviction (park in memory, spill to a
// checkpoint), and a digest-keyed result cache. See internal/cosimd for the subsystem itself.
//
// Example:
//
//	cosimd -addr localhost:8080 -workers 8 -state /var/tmp/cosimd
//	curl -s localhost:8080/api/v1/sessions -d '{"workload":"fft","tiles":16,"ops":250}'
//
// SIGINT/SIGTERM shut down gracefully: the HTTP listener stops, every
// live session drains to a checkpoint in -state, and a manifest is
// written so the next cosimd -state run resumes the session table.
//
// -smoke runs a self-contained smoke test instead of serving: it
// starts the server on a loopback port, drives a sweep through the
// HTTP API with deliberately tiny resident and warm limits (forcing
// parks, spills and checkpoint fault-ins mid-run), and verifies every served fingerprint against a direct
// in-process run of the same config. Exit status reports the verdict.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/cosimd"
)

func main() {
	var (
		addr     = flag.String("addr", "localhost:8080", "HTTP listen address")
		workers  = flag.Int("workers", 4, "worker-pool size")
		slice    = flag.Uint64("slice", 4096, "scheduling slice in simulated cycles")
		resident = flag.Int("max-resident", 64, "max resident sessions (the ones that may own worker pools) before the LRU-idle one is parked")
		maxWarm  = flag.Int("max-warm", 0, "max parked sessions held in memory, pools stopped, before the LRU one is spilled to a checkpoint file (0 = max-resident, negative = disable the warm tier)")
		stateDir = flag.String("state", "", "checkpoint/manifest directory (default: fresh temp dir)")
		aging    = flag.Uint64("aging", 0, "scheduler aging credit in cycles per tick (0 = one slice)")
		events   = flag.Int("events-buffer", 0, "per-subscriber /events queue depth (0 = 256, negative = disable event streaming)")
		flight   = flag.Int("flight-depth", 0, "per-session flight-recorder ring size (0 = 64, negative = disable flight recording)")
		quiet    = flag.Bool("quiet", false, "suppress server event log")
		smoke    = flag.Bool("smoke", false, "run the self-contained smoke test and exit")
	)
	flag.Parse()

	opts := cosimd.Options{
		Workers:      *workers,
		SliceCycles:  *slice,
		MaxResident:  *resident,
		MaxWarm:      *maxWarm,
		StateDir:     *stateDir,
		Aging:        *aging,
		EventsBuffer: *events,
		FlightDepth:  *flight,
	}
	if !*quiet {
		opts.Log = os.Stderr
	}

	if *smoke {
		if err := runSmoke(opts); err != nil {
			fatal(err)
		}
		fmt.Println("cosimd smoke: OK")
		return
	}

	srv, err := cosimd.NewServer(opts)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "cosimd: serving on %s (workers=%d slice=%d max-resident=%d state=%s)\n",
		ln.Addr(), *workers, *slice, *resident, srv.StateDir())

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	select {
	case sig := <-sigc:
		fmt.Fprintf(os.Stderr, "cosimd: %v — draining sessions to %s\n", sig, srv.StateDir())
	case err := <-errc:
		if err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "cosimd: serve:", err)
		}
	}
	if err := httpSrv.Shutdown(context.Background()); err != nil {
		fmt.Fprintln(os.Stderr, "cosimd: shutdown:", err)
	}
	if err := srv.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintln(os.Stderr, "cosimd: drained")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cosimd:", err)
	os.Exit(1)
}
