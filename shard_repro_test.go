package repro

import (
	"bytes"
	"testing"

	"repro/internal/workload"
)

// shardTestWorkers are the shard worker counts the end-to-end matrix
// exercises: 0 is the default one-shard network stepped inline on the
// caller, 2 and 4 split the 4x4 mesh into multi-router shards, and 8
// forces two-router shards.
var shardTestWorkers = []int{0, 2, 4, 8}

// TestShardedBitIdenticalAllModes is the end-to-end sharding property
// (the top-level companion of the internal/noc shard tests, shaped
// like TestGatingBitIdenticalAllModes): for every co-simulation mode,
// a gated run with the NoC sweep partitioned for 0/2/4/8 workers must
// produce the same mid-run checkpoint bytes and the same final result
// as the exhaustive sequential -no-fastforward sweep. Run under -race
// (`make race-shard`) this doubles as the data-race proof for the one
// gated stepping path.
func TestShardedBitIdenticalAllModes(t *testing.T) {
	for _, mode := range Modes() {
		t.Run("vc/"+string(mode), func(t *testing.T) {
			mkcfg := func(workers int, disable bool) Config {
				cfg := DefaultConfig(16)
				cfg.DisableGating = disable
				cfg.NocWorkers = workers
				return cfg
			}
			run := func(workers int, disable bool) ([]byte, detResult) {
				cfg := mkcfg(workers, disable)
				cs, err := BuildCosim(cfg, mode, workload.NewOcean(16, 300, 7))
				if err != nil {
					t.Fatal(err)
				}
				defer cs.Net.Close()
				cs.Run(2000)
				blob, err := EncodeCheckpoint(cs, ConfigDigest(cfg, mode, "shard-test"))
				if err != nil {
					t.Fatal(err)
				}
				res := cs.Run(5_000_000)
				if !res.Finished {
					t.Fatalf("mode %s (workers=%d, gating disabled=%v) did not finish",
						mode, workers, disable)
				}
				return blob, det(res)
			}
			// Checkpoints must interchange across partitions, so the
			// worker count must not leak into the digest.
			if ConfigDigest(mkcfg(8, false), mode, "shard-test") !=
				ConfigDigest(mkcfg(0, false), mode, "shard-test") {
				t.Fatal("NocWorkers leaked into the config digest")
			}
			refBlob, refRes := run(0, true)
			for _, w := range shardTestWorkers {
				blob, res := run(w, false)
				if !bytes.Equal(blob, refBlob) {
					t.Errorf("workers=%d: mid-run checkpoint bytes differ from the exhaustive sequential run", w)
				}
				if res != refRes {
					t.Errorf("workers=%d: result diverged from exhaustive sequential:\nsharded: %+v\nref:     %+v",
						w, res, refRes)
				}
			}
		})
	}
}
