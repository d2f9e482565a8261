package repro

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/snapshot"
)

// These tests pin what core.Cosim's Fork, RestoreFork and ForkInto
// promise their callers. The bodies are encode → build → decode over
// the snapshot tier, so what is under test here is the part no
// checkpoint test constructs: the twin that BuildCosim's recorded
// recipe builds over a fresh workload instance, and that it shares
// nothing with its parent. The case matrix is the checkpoint
// round-trip tests': every co-simulation mode and every memory model.

// TestForkRunBitIdentical is Fork's core guarantee: running
// to cycle T, forking, and finishing the fork produces statistics
// bit-identical to an uninterrupted run — and the forked parent,
// finished afterwards, converges identically too (forking must not
// perturb the parent).
func TestForkRunBitIdentical(t *testing.T) {
	for _, c := range checkpointCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := buildCkptCosim(t, c, 42)
			want := ckptFingerprint(t, ref, ref.Run(ckptLimit))

			parent := buildCkptCosim(t, c, 42)
			if res := parent.Run(ckptAt); res.Finished {
				t.Fatalf("workload finished before the fork point; fork test is vacuous: %+v", res)
			}
			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer child.Close()

			if got := ckptFingerprint(t, child, child.Run(ckptLimit)); got != want {
				t.Errorf("forked run diverged from uninterrupted run\nwant %s\ngot  %s", want, got)
			}
			if got := ckptFingerprint(t, parent, parent.Run(ckptLimit)); got != want {
				t.Errorf("parent diverged after being forked\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestForkEncodeByteIdentical: a fork must serialize to exactly the
// bytes the parent's direct encode produces, and RestoreFork of it
// into a separately built co-simulation must re-encode to the same
// bytes again.
func TestForkEncodeByteIdentical(t *testing.T) {
	for _, c := range checkpointCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			parent := buildCkptCosim(t, c, 42)
			parent.Run(ckptAt)
			digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")

			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer child.Close()

			direct, err := EncodeCheckpoint(parent, digest)
			if err != nil {
				t.Fatal(err)
			}
			forked, err := EncodeCheckpoint(child, digest)
			if err != nil {
				t.Fatal(err)
			}
			if string(forked) != string(direct) {
				t.Fatal("fork-then-encode differs from direct encode")
			}

			restored := buildCkptCosim(t, c, 42)
			if err := restored.RestoreFork(child); err != nil {
				t.Fatal(err)
			}
			again, err := EncodeCheckpoint(restored, digest)
			if err != nil {
				t.Fatal(err)
			}
			if string(again) != string(direct) {
				t.Error("RestoreFork-then-encode differs from direct encode")
			}
		})
	}
}

// TestForkDivergenceIndependent interleaves parent and child stepping
// after the fork: whatever order the two advance in, each must still
// land on the uninterrupted run's statistics, proving the twin
// shares no mutable state (workload instance included) with its
// parent.
func TestForkDivergenceIndependent(t *testing.T) {
	for _, c := range checkpointCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := buildCkptCosim(t, c, 42)
			want := ckptFingerprint(t, ref, ref.Run(ckptLimit))

			parent := buildCkptCosim(t, c, 42)
			parent.Run(ckptAt)
			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer child.Close()

			// Child sprints ahead, then the two alternate unevenly.
			for i := 0; i < 64 && !child.Sys.Done(); i++ {
				child.Step()
			}
			for !parent.Sys.Done() || !child.Sys.Done() {
				for i := 0; i < 3 && !parent.Sys.Done(); i++ {
					parent.Step()
				}
				if !child.Sys.Done() {
					child.Step()
				}
				if parent.Cycle() > ckptLimit || child.Cycle() > ckptLimit {
					t.Fatal("interleaved runs did not finish within the cycle limit")
				}
			}
			if got := ckptFingerprint(t, parent, parent.Run(ckptLimit)); got != want {
				t.Errorf("parent diverged under interleaved stepping\nwant %s\ngot  %s", want, got)
			}
			if got := ckptFingerprint(t, child, child.Run(ckptLimit)); got != want {
				t.Errorf("child diverged under interleaved stepping\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestForkConcurrentAdvance runs parent and fork to completion on
// separate goroutines. A fork is a separately constructed object
// graph, so under -race this must be silent; any report marks
// something the recipe handed to both.
func TestForkConcurrentAdvance(t *testing.T) {
	for _, c := range checkpointCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			ref := buildCkptCosim(t, c, 42)
			want := ckptFingerprint(t, ref, ref.Run(ckptLimit))

			parent := buildCkptCosim(t, c, 42)
			parent.Run(ckptAt)
			child, err := parent.Fork()
			if err != nil {
				t.Fatal(err)
			}
			defer child.Close()

			var wg sync.WaitGroup
			results := make([]core.Result, 2)
			for i, cs := range []*core.Cosim{parent, child} {
				i, cs := i, cs
				wg.Add(1)
				go func() {
					defer wg.Done()
					results[i] = cs.Run(ckptLimit)
				}()
			}
			wg.Wait()
			if got := ckptFingerprint(t, parent, results[0]); got != want {
				t.Errorf("parent diverged under concurrent advance\nwant %s\ngot  %s", want, got)
			}
			if got := ckptFingerprint(t, child, results[1]); got != want {
				t.Errorf("child diverged under concurrent advance\nwant %s\ngot  %s", want, got)
			}
		})
	}
}

// TestForkGoldenEncode pins Fork against the golden checkpoint: a fork
// of the restored golden state must re-encode to the golden bytes.
func TestForkGoldenEncode(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
	blob, err := os.ReadFile(filepath.Join("testdata", "reciprocal-16t.ckpt"))
	if err != nil {
		t.Fatalf("missing golden checkpoint: %v", err)
	}
	cs := buildCkptCosim(t, c, 42)
	if err := DecodeCheckpoint(blob, cs, digest); err != nil {
		t.Fatal(err)
	}
	child, err := cs.Fork()
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	forked, err := EncodeCheckpoint(child, digest)
	if err != nil {
		t.Fatal(err)
	}
	if string(forked) != string(blob) {
		t.Error("fork of the restored golden state does not re-encode to the golden bytes")
	}
}

// TestForkInto proves the warm-fork transplant: once the network is
// quiescent, the whole warmed system state carries onto a freshly
// built backend and the pair runs on independently.
func TestForkInto(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	cfg := ckptConfig(c)
	parent := buildCkptCosim(t, c, 42)
	parent.Run(ckptAt)
	if !parent.RunToQuiescence(parent.Cycle(), ckptLimit) {
		t.Fatal("network did not quiesce")
	}

	// A differently-structured backend: more VCs and deeper buffers.
	alt := cfg
	alt.Router.VCsPerVNet *= 2
	alt.Router.BufDepth *= 2
	backend, err := BuildBackend(alt, c.mode)
	if err != nil {
		t.Fatal(err)
	}
	child, err := parent.ForkInto(backend, cfg.Quantum)
	if err != nil {
		t.Fatal(err)
	}
	defer child.Close()
	if child.Cycle() != parent.Cycle() {
		t.Fatalf("transplant starts at cycle %d, want %d", child.Cycle(), parent.Cycle())
	}
	// The transplant carried everything: tiles, caches, directory,
	// event queue, memory oracles and workload position encode equal.
	sysBytes := func(cs *core.Cosim) string {
		blob, _ := snapshot.Seal(0, func(c *snapshot.Codec) error { cs.Sys.State(c); return nil })
		return string(blob)
	}
	if sysBytes(child) != sysBytes(parent) {
		t.Fatal("transplanted system state encodes differently than the warm parent's")
	}

	res := child.Run(ckptLimit)
	if !res.Finished {
		t.Fatalf("transplanted run did not finish: %+v", res)
	}
	if res2 := parent.Run(ckptLimit); !res2.Finished {
		t.Fatalf("parent did not finish after transplant: %+v", res2)
	}

	// Transplanting into a mid-flight network must refuse.
	busy := buildCkptCosim(t, c, 42)
	busy.Run(ckptAt)
	if busy.Net.InFlight() == 0 {
		t.Skip("network drained at the save point; refusal case is vacuous")
	}
	backend2, err := BuildBackend(alt, c.mode)
	if err != nil {
		t.Fatal(err)
	}
	defer backend2.Close()
	if _, err := busy.ForkInto(backend2, cfg.Quantum); err == nil {
		t.Error("ForkInto with packets in flight succeeded")
	}
}
