package main

import (
	"fmt"

	"repro"
)

// workloadSpec is one set of inputs the benchmark runs. Why is the
// one-line reason it was chosen (it goes into BENCHMARK.json); sizes
// spells out the fixed inputs for a record.
type workloadSpec struct {
	Name  string
	why   func(sizes) string
	sizes func(sizes) string
	run   func(*harness)
}

// Why is the reason at the committed sizes.
func (w *workloadSpec) Why() string { return w.why(fullSizes) }

// workloads lists the benchmark's workloads in the order they are
// documented. They stress different layers on purpose: a change to one
// layer should move the workloads that use it and leave the others
// alone (README.md has the table).
var workloads = []*workloadSpec{
	{
		Name: "recip256",
		why: func(z sizes) string {
			return fmt.Sprintf("paper's headline: reciprocal q64, %d tiles, fft, %d ops/core; the detailed NoC stepped in 64-cycle batches does nearly all the work", z.recipTiles, z.recipOps)
		},
		sizes: func(z sizes) string {
			return fmt.Sprintf("reciprocal q64, %d tiles, fft, %d ops/core, fixed memory", z.recipTiles, z.recipOps)
		},
		run: func(h *harness) {
			h.runDirect([]simJob{{label: "recip", kernel: "fft", tiles: h.sz.recipTiles, ops: h.sz.recipOps, mode: repro.ModeReciprocal, seed: h.seed}})
			if h.traced {
				h.captureProbes(h.sz.recipTiles, h.sz.recipOps)
			}
			h.accuracyGuard()
		},
	},
	{
		Name: "abs1024",
		why: func(z sizes) string {
			return fmt.Sprintf("abstract network, %d tiles, radix, %d ops/core: bypasses the detailed NoC, so tick, per-cycle exchange and the analytical model carry the run", z.absTiles, z.absOps)
		},
		sizes: func(z sizes) string {
			return fmt.Sprintf("abstract q1, %d tiles, radix, %d ops/core, fixed memory", z.absTiles, z.absOps)
		},
		run: func(h *harness) {
			h.runDirect([]simJob{{label: "abs", kernel: "radix", tiles: h.sz.absTiles, ops: h.sz.absOps, mode: repro.ModeAbstract, seed: h.seed}})
			h.accuracyGuard()
		},
	},
	{
		Name: "calib64",
		why: func(z sizes) string {
			return fmt.Sprintf("calibrated network and memory, %d tiles, ocean, %d ops/core: the same NoC advanced one cycle per call and mostly idle, beside refits and DRAM oracles", z.calibTiles, z.calibOps)
		},
		sizes: func(z sizes) string {
			return fmt.Sprintf("calibrated q1 + calibrated memory, %d tiles, ocean, %d ops/core", z.calibTiles, z.calibOps)
		},
		run: func(h *harness) {
			h.runDirect([]simJob{{label: "calib", kernel: "ocean", tiles: h.sz.calibTiles, ops: h.sz.calibOps, mode: repro.ModeCalibrated, mem: "calibrated", seed: h.seed}})
			h.accuracyGuard()
		},
	},
	{
		Name: "noc_sat32",
		why: func(z sizes) string {
			return fmt.Sprintf("standalone %dx%d mesh, uniform traffic at %.2f flits/node/cycle, %d cycles: every router busy every cycle, nothing to gate (cmd/nocsim's regime)", z.nocWidth, z.nocWidth, nocRate, z.nocCycles)
		},
		sizes: func(z sizes) string {
			return fmt.Sprintf("%dx%d mesh, uniform single-flit traffic at %.2f/node/cycle, %d cycles, in-flight cap %d x routers, sequential sweep",
				z.nocWidth, z.nocWidth, nocRate, z.nocCycles, nocInFlightPerRouter)
		},
		run: func(h *harness) {
			h.runNoCSat()
			h.accuracyGuard()
		},
	},
	{
		Name: "serve_churn",
		why: func(z sizes) string {
			return fmt.Sprintf("cosimd over loopback HTTP, closed loop of 2 clients x %d outstanding %d-tile sessions, %d worker, %d resident: scheduler, warm park/adopt and event plane on every slice", z.serveOutstanding, z.serveTiles, serveOptions.Workers, serveOptions.MaxResident)
		},
		sizes: func(z sizes) string {
			return fmt.Sprintf("cosimd workers %d slice %d resident %d warm %d; %d clients x %d outstanding, batches of %d; %d-tile reciprocal sessions of %d to %d ops/core, distinct seeds, %d kernels x %d tenants; every %dth re-run in process",
				serveOptions.Workers, serveOptions.SliceCycles, serveOptions.MaxResident, serveOptions.MaxWarm,
				serveClients(), z.serveOutstanding, z.serveBatch, z.serveTiles, z.serveOps/2, z.serveOps/2+z.serveOps*(z.serveBatch-1)/z.serveBatch, len(serveKernels), len(serveTenants), z.serveVerifyEvery)
		},
		run: func(h *harness) {
			h.runServeChurn()
			h.accuracyGuard()
		},
	},
	{
		Name: "accuracy64",
		why: func(z sizes) string {
			return fmt.Sprintf("synchronous reference + abstract, reciprocal, calibrated on fft and radix at %d tiles, %d ops/core: guards against a speedup that moves simulated results", z.accTiles, z.accOps)
		},
		sizes: func(z sizes) string {
			return fmt.Sprintf("%v x %v, %d tiles, %d ops/core, fixed memory", accuracyKernels, accuracyModes, z.accTiles, z.accOps)
		},
		run: func(h *harness) {
			last := h.runDirect(accuracyJobs("acc", h.sz.accTiles, h.sz.accOps, h.seed))
			h.observeAccuracy(last)
		},
	},
}

func workloadByName(name string) *workloadSpec {
	for _, w := range workloads {
		if w.Name == name {
			return w
		}
	}
	return nil
}
