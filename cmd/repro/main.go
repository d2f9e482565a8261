// Command repro regenerates the reproduced tables and figures (see
// DESIGN.md's experiment index and EXPERIMENTS.md for recorded runs).
//
// Example:
//
//	repro -list
//	repro -exp F4                 # headline accuracy experiment
//	repro -exp all -scale quick   # everything, CI-sized
//	repro -exp all -scale full    # paper-scale (minutes)
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/expt"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (T1,F1..F8,T2,A1..A4,A6) or 'all'")
		scale     = flag.String("scale", "quick", "scale: quick|full")
		mem       = flag.String("mem", "", "memory model for every run: fixed|ddr|abstract|calibrated (\"\" keeps the scale's default; A3 overrides per column)")
		list      = flag.Bool("list", false, "list experiments and exit")
		csv       = flag.Bool("csv", false, "emit CSV instead of text tables")
		js        = flag.Bool("json", false, "emit JSON instead of text tables")
		resumeDir = flag.String("resume-dir", "", "directory of per-experiment results: finished experiments are replayed from it instead of rerun, so an interrupted -exp all sweep resumes where it stopped")
	)
	flag.Parse()

	if *list {
		for _, e := range expt.All() {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var s expt.Scale
	switch *scale {
	case "quick":
		s = expt.Quick()
	case "full":
		s = expt.Full()
	default:
		fatal(fmt.Errorf("unknown scale %q", *scale))
	}
	s.MemModel = *mem

	var exps []expt.Experiment
	if strings.EqualFold(*exp, "all") {
		exps = expt.All()
	} else {
		e, err := expt.ByID(strings.ToUpper(*exp))
		if err != nil {
			fmt.Fprintln(os.Stderr, "repro:", err)
			fmt.Fprintln(os.Stderr, "available experiments:")
			for _, e := range expt.All() {
				fmt.Fprintf(os.Stderr, "  %-4s %s\n", e.ID, e.Title)
			}
			os.Exit(1)
		}
		exps = []expt.Experiment{e}
	}

	ext := ".txt"
	switch {
	case *js:
		ext = ".json"
	case *csv:
		ext = ".csv"
	}
	if *resumeDir != "" {
		if err := os.MkdirAll(*resumeDir, 0o755); err != nil {
			fatal(err)
		}
	}

	for _, e := range exps {
		done := filepath.Join(*resumeDir, e.ID+ext)
		if *resumeDir != "" {
			if rec, err := os.ReadFile(done); err == nil {
				fmt.Printf("### %s — %s (replayed from %s)\n", e.ID, e.Title, done)
				os.Stdout.Write(rec)
				fmt.Println()
				continue
			} else if !os.IsNotExist(err) {
				fatal(err)
			}
		}
		fmt.Printf("### %s — %s (scale=%s)\n", e.ID, e.Title, *scale)
		start := time.Now() //simlint:allow wallclock CLI progress timing around the run, outside simulated state
		tables := e.Run(s)
		var rendered bytes.Buffer
		for _, tb := range tables {
			var err error
			switch {
			case *js:
				err = tb.WriteJSON(&rendered)
			case *csv:
				err = tb.WriteCSV(&rendered)
			default:
				err = tb.WriteText(&rendered)
			}
			if err != nil {
				fatal(err)
			}
			fmt.Fprintln(&rendered)
		}
		os.Stdout.Write(rendered.Bytes())
		if *resumeDir != "" {
			// Atomic write: a sweep killed mid-experiment must not leave a
			// partial record that a resume would wrongly skip.
			tmp, err := os.CreateTemp(*resumeDir, e.ID+".tmp*")
			if err != nil {
				fatal(err)
			}
			if _, err := tmp.Write(rendered.Bytes()); err != nil {
				fatal(err)
			}
			if err := tmp.Close(); err != nil {
				fatal(err)
			}
			if err := os.Rename(tmp.Name(), done); err != nil {
				fatal(err)
			}
		}
		fmt.Printf("(%s in %s)\n\n", e.ID, time.Since(start).Round(time.Millisecond)) //simlint:allow wallclock CLI progress timing around the run, outside simulated state
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "repro:", err)
	os.Exit(1)
}
