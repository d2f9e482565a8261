package repro

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/workload"
)

// detResult strips the wall-clock fields from a Result, leaving only
// the deterministic simulated outcome.
type detResult struct {
	finished, stalled bool
	execCycles        int64
	packets, retired  uint64
	avgLat, avgNetLat float64
	p95Lat, avgHops   float64
	avgSkew           float64
	maxSkew           int64
}

func det(r core.Result) detResult {
	return detResult{r.Finished, r.Stalled, int64(r.ExecCycles), r.Packets,
		r.Retired, r.AvgLatency, r.AvgNetLatency, r.P95Latency, r.AvgHops,
		r.AvgSkew, int64(r.MaxSkew)}
}

// TestGatingBitIdenticalAllModes is the end-to-end half of the gating
// property: for every co-simulation mode, a run with activity gating
// must produce the same mid-run checkpoint bytes and the same final
// result as the exhaustive -no-fastforward sweep.
func TestGatingBitIdenticalAllModes(t *testing.T) {
	for _, mode := range Modes() {
		t.Run("vc/"+string(mode), func(t *testing.T) {
			run := func(disable bool) ([]byte, detResult) {
				cfg := DefaultConfig(16)
				cfg.DisableGating = disable
				cs, err := BuildCosim(cfg, mode, workload.NewOcean(16, 300, 7))
				if err != nil {
					t.Fatal(err)
				}
				defer cs.Net.Close()
				cs.Run(2000)
				blob, err := EncodeCheckpoint(cs, ConfigDigest(cfg, mode, "gating-test"))
				if err != nil {
					t.Fatal(err)
				}
				res := cs.Run(5_000_000)
				if !res.Finished {
					t.Fatalf("mode %s (gating disabled=%v) did not finish", mode, disable)
				}
				return blob, det(res)
			}
			gatedBlob, gatedRes := run(false)
			exBlob, exRes := run(true)
			if !bytes.Equal(gatedBlob, exBlob) {
				t.Error("mid-run checkpoint bytes differ between gated and exhaustive runs")
			}
			if gatedRes != exRes {
				t.Errorf("gated result diverged from exhaustive:\ngated: %+v\nexh:   %+v", gatedRes, exRes)
			}
		})
	}
}

// TestGatedCheckpointRestoresIntoUngatedRun verifies the escape-hatch
// interop promise: because ConfigDigest excludes the gating flags, a
// checkpoint saved from a gated run restores into a -no-fastforward
// co-simulation (and vice versa) and finishes with the reference
// result.
func TestGatedCheckpointRestoresIntoUngatedRun(t *testing.T) {
	mkcfg := func(disable bool) Config {
		cfg := DefaultConfig(16)
		cfg.DisableGating = disable
		return cfg
	}
	mkwl := func() *workload.Synthetic { return workload.NewRadix(16, 300, 11) }

	// Reference: uninterrupted gated run.
	ref, err := BuildCosim(mkcfg(false), ModeReciprocal, mkwl())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Net.Close()
	want := det(ref.Run(5_000_000))

	for _, dir := range []struct {
		name             string
		saveOff, restOff bool
	}{
		{"gated-to-exhaustive", false, true},
		{"exhaustive-to-gated", true, false},
	} {
		t.Run(dir.name, func(t *testing.T) {
			src, err := BuildCosim(mkcfg(dir.saveOff), ModeReciprocal, mkwl())
			if err != nil {
				t.Fatal(err)
			}
			defer src.Net.Close()
			src.Run(2000)
			saveDig := ConfigDigest(mkcfg(dir.saveOff), ModeReciprocal, "interop")
			blob, err := EncodeCheckpoint(src, saveDig)
			if err != nil {
				t.Fatal(err)
			}

			dst, err := BuildCosim(mkcfg(dir.restOff), ModeReciprocal, mkwl())
			if err != nil {
				t.Fatal(err)
			}
			defer dst.Net.Close()
			restDig := ConfigDigest(mkcfg(dir.restOff), ModeReciprocal, "interop")
			if saveDig != restDig {
				t.Fatal("gating flags leaked into the config digest")
			}
			if err := DecodeCheckpoint(blob, dst, restDig); err != nil {
				t.Fatal(err)
			}
			if got := det(dst.Run(5_000_000)); got != want {
				t.Errorf("resumed run diverged from reference:\ngot:  %+v\nwant: %+v", got, want)
			}
		})
	}
}
