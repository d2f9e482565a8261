package repro

import (
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// ConfigDigest fingerprints everything a checkpoint depends on: the
// target-machine configuration, the co-simulation mode, and a caller
// description of the workload. Restoring a snapshot into a
// co-simulation built from a different configuration fails with
// snapshot.ErrConfigMismatch instead of resuming a subtly wrong run.
//
// The checkpoint mechanism itself (encoding, atomic file I/O, chunked
// resumable running) lives in internal/ckpt and is shared with the
// cosimd session server; this function owns the digest *policy* for
// the public Config type.
func ConfigDigest(cfg Config, mode Mode, workloadDesc string) uint64 {
	// Activity gating and the NoC worker count change host speed,
	// never simulated state (the gating and sharding bit-identity tests
	// assert it), so checkpoints taken under either setting interchange:
	// both knobs are cleared before hashing.
	cfg.DisableGating = false
	cfg.Router.DisableGating = false
	cfg.NocWorkers = 0
	return snapshot.Digest("repro-ckpt", string(mode), workloadDesc, fmt.Sprintf("%+v", cfg))
}

// EncodeCheckpoint serializes the complete co-simulation state —
// coordinator, system simulator, and network backend with in-flight
// packets — into a self-validating checkpoint blob.
func EncodeCheckpoint(cs *core.Cosim, digest uint64) ([]byte, error) {
	return ckpt.Encode(cs, digest)
}

// DecodeCheckpoint restores a checkpoint blob into a co-simulation
// built with the same configuration, mode, and workload that produced
// it (the digest enforces this).
func DecodeCheckpoint(blob []byte, cs *core.Cosim, digest uint64) error {
	return ckpt.Decode(blob, cs, digest)
}

// SaveCheckpoint writes the co-simulation state to path atomically
// (temp file in the same directory, then rename), so an interrupted
// save never corrupts an existing checkpoint.
func SaveCheckpoint(path string, cs *core.Cosim, digest uint64) error {
	return ckpt.Save(path, cs, digest)
}

// LoadCheckpoint restores the co-simulation from a checkpoint file.
func LoadCheckpoint(path string, cs *core.Cosim, digest uint64) error {
	return ckpt.Load(path, cs, digest)
}

// RunResumable runs the co-simulation to the cycle limit with
// checkpointing: when path exists its state is restored first, and a
// checkpoint is rewritten every `every` cycles (0 disables periodic
// saves; the file is still consumed for resume). Because the restored
// state is bit-identical to the saved one, an interrupted and resumed
// run reports the same statistics as an uninterrupted one.
func RunResumable(cs *core.Cosim, limit sim.Cycle, path string, every sim.Cycle, digest uint64) (core.Result, error) {
	return ckpt.RunResumable(cs, limit, path, every, digest)
}
