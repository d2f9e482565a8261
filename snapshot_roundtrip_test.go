package repro

import (
	"encoding/binary"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false,
	"regenerate testdata golden checkpoint and fingerprint")

// ckptCase is one (mode, memory model) co-simulation variant.
type ckptCase struct {
	name string
	mode Mode
	mem  string // System.MemModel; "" keeps the fixed default
}

// checkpointCases covers every co-simulation mode and every memory
// model: the detailed DRAM oracle under all six network modes, plus
// the abstract and calibrated memory oracles.
func checkpointCases() []ckptCase {
	cases := []ckptCase{
		{"synchronous", ModeSynchronous, ""},
		{"abstract", ModeAbstract, ""},
		{"contention", ModeContention, ""},
		{"reciprocal", ModeReciprocal, ""},
		{"hybrid", ModeHybrid, ""},
		{"calibrated", ModeCalibrated, ""},
	}
	for _, m := range Modes() {
		cases = append(cases, ckptCase{string(m) + "/ddr", m, "ddr"})
	}
	cases = append(cases,
		ckptCase{"reciprocal/mem-abstract", ModeReciprocal, "abstract"},
		ckptCase{"reciprocal/mem-calibrated", ModeReciprocal, "calibrated"},
	)
	return cases
}

func ckptConfig(c ckptCase) Config {
	cfg := DefaultConfig(16)
	if c.mem != "" {
		cfg.System.MemModel = c.mem
	}
	return cfg
}

func buildCkptCosim(t testing.TB, c ckptCase, seed uint64) *core.Cosim {
	t.Helper()
	cs, err := BuildCosim(ckptConfig(c), c.mode, workload.NewFFT(16, 250, seed))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cs.Close)
	return cs
}

// ckptFingerprint summarizes every externally observable outcome of a
// finished run, floats formatted %x for bit-exact comparison (mirrors
// internal/core's determinism fingerprint).
func ckptFingerprint(t *testing.T, cs *core.Cosim, res core.Result) string {
	t.Helper()
	if !res.Finished {
		t.Fatalf("workload did not finish: %+v", res)
	}
	hits, misses := cs.Sys.L1Stats()
	return fmt.Sprintf(
		"exec=%d retired=%d pkts=%d lat=%x netlat=%x p95=%x hops=%x skew=%x maxskew=%d msgs=%d flits=%d local=%d l1=%d/%d",
		res.ExecCycles, res.Retired, res.Packets,
		res.AvgLatency, res.AvgNetLatency, res.P95Latency, res.AvgHops,
		res.AvgSkew, res.MaxSkew,
		cs.Sys.MsgsSent(), cs.Sys.FlitsSent(), cs.Sys.LocalMsgs(), hits, misses)
}

const (
	ckptLimit = sim.Cycle(2_000_000)
	ckptAt    = sim.Cycle(1024) // mid-run save point (quantum-aligned by Run)
)

// TestCheckpointResumeBitIdentical is the subsystem's core guarantee:
// for every co-simulation mode and memory model, running to cycle T,
// checkpointing, restoring into a freshly built co-simulation, and
// running to completion produces statistics bit-identical to an
// uninterrupted run.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	for _, c := range checkpointCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			// Uninterrupted reference run.
			ref := buildCkptCosim(t, c, 42)
			want := ckptFingerprint(t, ref, ref.Run(ckptLimit))

			// Run to the save point and checkpoint.
			saved := buildCkptCosim(t, c, 42)
			if res := saved.Run(ckptAt); res.Finished {
				t.Fatalf("workload finished before the save point; checkpoint test is vacuous: %+v", res)
			}
			digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
			blob, err := EncodeCheckpoint(saved, digest)
			if err != nil {
				t.Fatal(err)
			}

			// Restore into a fresh co-simulation and finish the run.
			resumed := buildCkptCosim(t, c, 42)
			if err := DecodeCheckpoint(blob, resumed, digest); err != nil {
				t.Fatalf("restore: %v", err)
			}
			if got := ckptFingerprint(t, resumed, resumed.Run(ckptLimit)); got != want {
				t.Errorf("resumed run diverged from uninterrupted run\nwant %s\ngot  %s", want, got)
			}

			// The interrupted original must converge identically too
			// (saving must not perturb the saved instance).
			if got := ckptFingerprint(t, saved, saved.Run(ckptLimit)); got != want {
				t.Errorf("run diverged after being snapshotted\nwant %s\ngot  %s", want, got)
			}

			// Snapshot encoding must be deterministic, and the restored
			// state must re-encode to the original bytes.
			resumed2 := buildCkptCosim(t, c, 42)
			if err := DecodeCheckpoint(blob, resumed2, digest); err != nil {
				t.Fatal(err)
			}
			blob2, err := EncodeCheckpoint(resumed2, digest)
			if err != nil {
				t.Fatal(err)
			}
			if string(blob2) != string(blob) {
				t.Error("restored state re-encodes to different bytes")
			}
		})
	}
}

// TestRestoreIntoFinishedCosim rewinds: a checkpoint taken mid-run is
// decoded into the co-simulation that wrote it after that one has run
// to the end, twice over. Each time the restored state must re-encode
// to the blob and finish with the uninterrupted fingerprint. Nothing
// may survive a restore that a fresh build would not have — under
// -tags simcheck that includes the inject-order history in the send
// closure, which a rewind would otherwise trip.
func TestRestoreIntoFinishedCosim(t *testing.T) {
	for _, c := range checkpointCases() {
		c := c
		t.Run(c.name, func(t *testing.T) {
			cs := buildCkptCosim(t, c, 42)
			if res := cs.Run(ckptAt); res.Finished {
				t.Fatalf("workload finished before the save point; rewind test is vacuous: %+v", res)
			}
			digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
			blob, err := EncodeCheckpoint(cs, digest)
			if err != nil {
				t.Fatal(err)
			}
			want := ckptFingerprint(t, cs, cs.Run(ckptLimit))
			for i := 1; i <= 2; i++ {
				if err := DecodeCheckpoint(blob, cs, digest); err != nil {
					t.Fatalf("rewind %d: %v", i, err)
				}
				again, err := EncodeCheckpoint(cs, digest)
				if err != nil {
					t.Fatal(err)
				}
				if string(again) != string(blob) {
					t.Errorf("rewind %d re-encodes to different bytes", i)
				}
				if got := ckptFingerprint(t, cs, cs.Run(ckptLimit)); got != want {
					t.Errorf("replay %d diverged\nwant %s\ngot  %s", i, want, got)
				}
			}
		})
	}
}

// TestCheckpointConfigMismatch proves the digest guard: a snapshot
// must not restore into a co-simulation built differently.
func TestCheckpointConfigMismatch(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	cs := buildCkptCosim(t, c, 42)
	cs.Run(ckptAt)
	digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
	blob, err := EncodeCheckpoint(cs, digest)
	if err != nil {
		t.Fatal(err)
	}
	other := ConfigDigest(ckptConfig(c), ModeHybrid, "fft-16-250-42")
	if other == digest {
		t.Fatal("digests for different modes collide; guard is vacuous")
	}
	fresh := buildCkptCosim(t, c, 42)
	if err := DecodeCheckpoint(blob, fresh, other); err == nil {
		t.Error("restore with a mismatched config digest succeeded")
	}
}

// TestRunResumable proves the file-level resume path: a run
// interrupted at a checkpoint file and resumed by a second process
// reports the same statistics as an uninterrupted run.
func TestRunResumable(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")

	ref := buildCkptCosim(t, c, 42)
	want := ckptFingerprint(t, ref, ref.Run(ckptLimit))

	path := filepath.Join(t.TempDir(), "run.ckpt")
	interrupted := buildCkptCosim(t, c, 42)
	interrupted.Run(ckptAt)
	if err := SaveCheckpoint(path, interrupted, digest); err != nil {
		t.Fatal(err)
	}

	resumed := buildCkptCosim(t, c, 42)
	res, err := RunResumable(resumed, ckptLimit, path, 0, digest)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptFingerprint(t, resumed, res); got != want {
		t.Errorf("RunResumable diverged from uninterrupted run\nwant %s\ngot  %s", want, got)
	}

	// Periodic saving must not perturb the run either.
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	periodic := buildCkptCosim(t, c, 42)
	res, err = RunResumable(periodic, ckptLimit, path, 4096, digest)
	if err != nil {
		t.Fatal(err)
	}
	if got := ckptFingerprint(t, periodic, res); got != want {
		t.Errorf("periodic checkpointing perturbed the run\nwant %s\ngot  %s", want, got)
	}
	if _, err := os.Stat(path); err != nil {
		t.Errorf("periodic run left no checkpoint file: %v", err)
	}
}

// TestCheckpointStaleVersion proves the format-version guard: a
// checkpoint from a different format version must fail with a clear,
// versioned error — not a CRC mismatch or a decode panic — so users
// learn to regenerate the checkpoint rather than suspect corruption.
func TestCheckpointStaleVersion(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	cs := buildCkptCosim(t, c, 42)
	cs.Run(ckptAt)
	digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
	blob, err := EncodeCheckpoint(cs, digest)
	if err != nil {
		t.Fatal(err)
	}

	// Rewrite the version field (right after the magic) to a stale
	// value. The decoder checks the version before the CRC, so this
	// must surface as ErrVersion even though the CRC no longer matches.
	stale := append([]byte(nil), blob...)
	binary.LittleEndian.PutUint32(stale[len(snapshot.Magic):], snapshot.FormatVersion-1)

	fresh := buildCkptCosim(t, c, 42)
	err = DecodeCheckpoint(stale, fresh, digest)
	if err == nil {
		t.Fatal("stale-version checkpoint restored successfully")
	}
	if !errors.Is(err, snapshot.ErrVersion) {
		t.Errorf("stale-version restore failed with %v, want ErrVersion", err)
	}
	want := fmt.Sprintf("format version %d", snapshot.FormatVersion-1)
	if !strings.Contains(err.Error(), want) {
		t.Errorf("error %q does not name the stale version (%q)", err, want)
	}
}

// goldenDigest is the config digest testdata/reciprocal-16t.ckpt was
// sealed under. ConfigDigest hashes the printed Config, so adding,
// removing or reordering a Config field moves every digest and orphans
// every persisted checkpoint and cosimd manifest; this constant is what
// notices.
const goldenDigest = 0x283413985a8c64d0

// TestConfigDigestsPinned widens the golden digest to a table: the
// digest of every checkpoint case's config and of the topology, quantum
// and host-speed variants. The host-speed rows must equal the plain
// reciprocal one; every other row is distinct.
func TestConfigDigestsPinned(t *testing.T) {
	want := map[string]uint64{
		"synchronous":               0xb5a40b55810b035b,
		"abstract":                  0x67db6c9195f0761a,
		"contention":                0xfad0424704dd2f63,
		"reciprocal":                goldenDigest,
		"hybrid":                    0xfbf7a0cb13268f4a,
		"calibrated":                0x87d7033c92e0be41,
		"synchronous/ddr":           0xb7b2597b635336d7,
		"abstract/ddr":              0x2f3f0c51a1c24ae,
		"contention/ddr":            0x6fb21c0d59351e3f,
		"reciprocal/ddr":            0x542730b45278db44,
		"hybrid/ddr":                0xc97423827243119e,
		"calibrated/ddr":            0x8ae99102e26dd485,
		"reciprocal/mem-abstract":   0x3bb804c9d490d69e,
		"reciprocal/mem-calibrated": 0x35574e72093b9f67,
		"torus":                     0xd5417327bf492f01,
		"oddeven":                   0xfdab641c5b9a4610,
		"quantum16":                 0x10551140774aa93f,
		"noc-workers2":              goldenDigest,
		"disable-gating":            goldenDigest,
	}
	type row struct {
		name string
		mode Mode
		cfg  Config
	}
	var rows []row
	for _, c := range checkpointCases() {
		rows = append(rows, row{c.name, c.mode, ckptConfig(c)})
	}
	variant := func(name string, edit func(*Config)) {
		cfg := DefaultConfig(16)
		edit(&cfg)
		rows = append(rows, row{name, ModeReciprocal, cfg})
	}
	variant("torus", func(c *Config) { c.Torus = true })
	variant("oddeven", func(c *Config) { c.Routing = "oddeven" })
	variant("quantum16", func(c *Config) { c.Quantum = 16 })
	variant("noc-workers2", func(c *Config) { c.NocWorkers = 2 })
	variant("disable-gating", func(c *Config) { c.DisableGating = true })
	if len(rows) != len(want) {
		t.Errorf("%d digests computed, %d pinned", len(rows), len(want))
	}
	for _, r := range rows {
		w, ok := want[r.name]
		if got := ConfigDigest(r.cfg, r.mode, "fft-16-250-42"); !ok || got != w {
			t.Errorf("%s: digest %#x, want %#x (pinned: %v)", r.name, got, w, ok)
		}
	}
	distinct := make(map[uint64]bool, len(want))
	for _, d := range want {
		distinct[d] = true
	}
	if len(distinct) != len(want)-2 {
		t.Errorf("%d distinct digests pinned, want %d: only the host-speed rows may repeat the reciprocal one", len(distinct), len(want)-2)
	}
}

// TestHostSpeedKnobsInterchangeCheckpoints: the NoC worker count
// changes host speed only, so it stays out of the digest and a
// checkpoint written under one setting resumes under another.
func TestHostSpeedKnobsInterchangeCheckpoints(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	fast := ckptConfig(c)
	fast.NocWorkers = 2
	digest := ConfigDigest(fast, c.mode, "fft-16-250-42")
	plain := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
	if digest != plain {
		t.Fatalf("-noc-workers 2 moved the digest: %#x vs %#x", digest, plain)
	}

	ref := buildCkptCosim(t, c, 42)
	want := ckptFingerprint(t, ref, ref.Run(ckptLimit))

	saved, err := BuildCosim(fast, c.mode, workload.NewFFT(16, 250, 42))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(saved.Close)
	saved.Run(ckptAt)
	blob, err := EncodeCheckpoint(saved, digest)
	if err != nil {
		t.Fatal(err)
	}
	resumed := buildCkptCosim(t, c, 42)
	if err := DecodeCheckpoint(blob, resumed, plain); err != nil {
		t.Fatalf("checkpoint written with 2 NoC workers does not resume under 0: %v", err)
	}
	if got := ckptFingerprint(t, resumed, resumed.Run(ckptLimit)); got != want {
		t.Errorf("resumed run diverged from the uninterrupted one\nwant %s\ngot  %s", want, got)
	}
}

// TestGoldenCheckpoint pins the on-disk format: a checkpoint written
// by a past build must keep restoring and producing the same final
// statistics. Regenerate with `go test -run TestGoldenCheckpoint
// -update-golden` after a deliberate, version-bumped format change.
func TestGoldenCheckpoint(t *testing.T) {
	c := ckptCase{"reciprocal", ModeReciprocal, ""}
	digest := ConfigDigest(ckptConfig(c), c.mode, "fft-16-250-42")
	if digest != goldenDigest {
		t.Fatalf("the golden config's digest moved from %#x to %#x: existing checkpoints are orphaned", uint64(goldenDigest), digest)
	}
	blobPath := filepath.Join("testdata", "reciprocal-16t.ckpt")
	wantPath := filepath.Join("testdata", "reciprocal-16t.fingerprint")

	if *updateGolden {
		cs := buildCkptCosim(t, c, 42)
		cs.Run(ckptAt)
		if err := SaveCheckpoint(blobPath, cs, digest); err != nil {
			t.Fatal(err)
		}
		fp := ckptFingerprint(t, cs, cs.Run(ckptLimit))
		if err := os.WriteFile(wantPath, []byte(fp+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden checkpoint regenerated: %s", fp)
		return
	}

	blob, err := os.ReadFile(blobPath)
	if err != nil {
		t.Fatalf("missing golden checkpoint (run with -update-golden to create): %v", err)
	}
	wantRaw, err := os.ReadFile(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	want := string(wantRaw)
	if n := len(want); n > 0 && want[n-1] == '\n' {
		want = want[:n-1]
	}

	cs := buildCkptCosim(t, c, 42)
	if err := DecodeCheckpoint(blob, cs, digest); err != nil {
		t.Fatalf("golden checkpoint no longer restores: %v", err)
	}
	if got := ckptFingerprint(t, cs, cs.Run(ckptLimit)); got != want {
		t.Errorf("golden checkpoint resume changed\nwant %s\ngot  %s", want, got)
	}
}
