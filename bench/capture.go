//simlint:allow-file wallclock the benchmark harness measures host time from outside the simulator; nothing here feeds simulated state

package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro"
	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/cosimd"
	"repro/internal/sim"
	"repro/internal/workload"
)

// captureProbes prices state capture on a mid-run reciprocal
// simulation of the given size: the in-memory fork tier, the serialized
// checkpoint, and the file round trip cosimd pays on a spill. Every
// restored copy is run to the end and must finish with the fingerprint
// of the uninterrupted run.
func (h *harness) captureProbes(tiles, ops int) {
	sp := h.tr.begin("capture probes", "capture", -1)
	defer h.tr.end(sp)
	problems := h.probeCapture(tiles, ops, sp)
	h.attempt(fmt.Sprintf("capture probes at %d tiles", tiles), problems)
}

func (h *harness) probeCapture(tiles, ops int, parent int) []string {
	cfg := repro.DefaultConfig(tiles)
	mode := repro.ModeReciprocal
	digest := repro.ConfigDigest(cfg, mode, "bench-capture")
	build := func() (*core.Cosim, error) {
		wl, err := workload.ByName("fft", tiles, ops, h.seed)
		if err != nil {
			return nil, err
		}
		return repro.BuildCosim(cfg, mode, wl)
	}
	finish := func(cs *core.Cosim) string {
		return cosimd.Fingerprint(cs, cs.Run(cycleLimit))
	}

	ref, err := build()
	if err != nil {
		return []string{err.Error()}
	}
	want := finish(ref)
	ref.Close()

	src, err := build()
	if err != nil {
		return []string{err.Error()}
	}
	defer src.Close()
	// A state with real in-flight traffic, some quanta into the run.
	if res := src.Run(sim.Cycle(h.sz.captureQuanta * cfg.Quantum)); res.Finished {
		return []string{"workload finished before the capture point"}
	}
	dst, err := build()
	if err != nil {
		return []string{err.Error()}
	}
	defer dst.Close()

	var problems []string
	timeIt := func(name string, n int, fn func() error) time.Duration {
		id := h.tr.begin(name, "capture", parent)
		defer h.tr.end(id)
		var samples []float64
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if err := fn(); err != nil {
				problems = append(problems, name+": "+err.Error())
				return 0
			}
			samples = append(samples, float64(time.Since(t0).Nanoseconds()))
		}
		return time.Duration(median(samples))
	}
	n := h.sz.captureIt

	// One fork builds the family's first shell; the timed ones are the
	// steady-state churn cosimd's warm tier pays (Fork + Release).
	warm, err := src.Fork()
	if err != nil {
		return []string{"fork: " + err.Error()}
	}
	warm.Release()
	fork := timeIt("fork", n, func() error {
		f, err := src.Fork()
		if err != nil {
			return err
		}
		f.Release()
		return nil
	})
	restore := timeIt("restore_fork", n, func() error { return dst.RestoreFork(src) })

	var blob []byte
	encode := timeIt("encode", n, func() error {
		var err error
		blob, err = ckpt.Encode(src, digest)
		return err
	})
	decode := timeIt("decode", n, func() error { return ckpt.Decode(blob, dst, digest) })
	path := filepath.Join(h.outDir, fmt.Sprintf("capture-%d.ckpt", tiles))
	defer os.Remove(path)
	saveLoad := timeIt("save_load", n, func() error {
		if err := ckpt.Save(path, src, digest); err != nil {
			return err
		}
		return ckpt.Load(path, dst, digest)
	})
	if len(problems) > 0 {
		return problems
	}

	h.observe("capture.fork_us", float64(fork.Nanoseconds())/1e3)
	h.observe("capture.restore_fork_us", float64(restore.Nanoseconds())/1e3)
	h.observe("capture.encode_ms", ms(encode))
	h.observe("capture.decode_ms", ms(decode))
	h.observe("capture.save_load_ms", ms(saveLoad))
	h.observe("capture.blob_kb", float64(len(blob))/1024)

	// dst now holds the loaded checkpoint; a fork of src holds the fork
	// tier's copy. Both must end where the uninterrupted run ended.
	if got := finish(dst); got != want {
		problems = append(problems, "checkpoint-restored run ends with a different fingerprint")
	}
	f, err := src.Fork()
	if err != nil {
		return append(problems, "fork: "+err.Error())
	}
	if got := finish(f); got != want {
		problems = append(problems, "forked run ends with a different fingerprint")
	}
	f.Release()
	return problems
}
