package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/noc"
	"repro/internal/sim"
	"repro/internal/workload"
)

// TestSealEveryCycleWhileFlitsPend seals a 16-tile reciprocal run, one
// cycle a quantum, at each of 200 consecutive cycles of heavy traffic.
// A link flit that has arrived but is not yet switchable waits on its
// ring until its ingest cycle, while the checkpoint records it in its
// input buffer, where a router that takes flits in on arrival holds it.
// Each checkpoint must re-encode to the same bytes (sealing is
// idempotent), a restore must re-encode to them too, and a resume from
// each must finish with the uninterrupted run's fingerprint — as must
// the sealed run itself.
func TestSealEveryCycleWhileFlitsPend(t *testing.T) {
	cfg := DefaultConfig(16)
	cfg.Quantum = 1
	const start, cycles = sim.Cycle(600), 200
	build := func() *core.Cosim {
		cs, err := BuildCosim(cfg, ModeReciprocal, workload.NewFFT(16, 60, 3))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(cs.Close)
		return cs
	}
	ref := build()
	want := ckptFingerprint(t, ref, ref.Run(ckptLimit))
	digest := ConfigDigest(cfg, ModeReciprocal, "fft-16-60-3")

	cs := build()
	net := cs.Net.(*noc.Network)
	// linkFlits[c] is how many flits had crossed links before cycle c:
	// a flit sent at t arrives at t+L, and waits until t+L+S-1.
	linkFlits := map[sim.Cycle]uint64{}
	L, S := sim.Cycle(cfg.Router.LinkLatency), sim.Cycle(cfg.Router.RouterStages)
	pendingAt := func(c sim.Cycle) bool {
		for t := c - L - S + 1; t <= c-L-1; t++ {
			if linkFlits[t+1] > linkFlits[t] {
				return true
			}
		}
		return false
	}
	pending := 0
	for k := 0; k < cycles; {
		c := cs.Cycle()
		if c != net.Cycle() {
			t.Fatalf("cosim at cycle %d, its network at %d", c, net.Cycle())
		}
		linkFlits[c] = net.Energy(noc.DefaultEnergy()).LinkFlits
		if c < start {
			if !cs.Step() {
				t.Fatal("run finished before the sealed span")
			}
			continue
		}
		if pendingAt(c) {
			pending++
		}
		blob, err := EncodeCheckpoint(cs, digest)
		if err != nil {
			t.Fatal(err)
		}
		if again, err := EncodeCheckpoint(cs, digest); err != nil || !bytes.Equal(again, blob) {
			t.Fatalf("cycle %d: sealing again gives other bytes (%v)", c, err)
		}
		resumed := build()
		if err := DecodeCheckpoint(blob, resumed, digest); err != nil {
			t.Fatalf("cycle %d: restore: %v", c, err)
		}
		if re, err := EncodeCheckpoint(resumed, digest); err != nil || !bytes.Equal(re, blob) {
			t.Fatalf("cycle %d: the restored run re-encodes to other bytes (%v)", c, err)
		}
		if got := ckptFingerprint(t, resumed, resumed.Run(ckptLimit)); got != want {
			t.Fatalf("cycle %d: resumed run diverged\nwant %s\ngot  %s", c, want, got)
		}
		resumed.Close()
		if !cs.Step() {
			t.Fatal("run finished inside the sealed span")
		}
		k++
	}
	t.Logf("flits pending at %d of %d sealed cycles", pending, cycles)
	if pending < cycles*3/4 {
		t.Errorf("flits were pending at only %d of the %d sealed cycles", pending, cycles)
	}
	if got := ckptFingerprint(t, cs, cs.Run(ckptLimit)); got != want {
		t.Errorf("the sealed run diverged\nwant %s\ngot  %s", want, got)
	}
}
