package repro

import (
	"fmt"
	"strings"

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
	// Activity gating changes simulator effort, never simulated state
	// (asserted by the gating bit-identity tests), so a checkpoint
	// taken with gating on must restore into a -no-fastforward run and
	// vice versa: the escape-hatch flags are excluded from the digest.
	cfg.DisableGating = false
	cfg.Router.DisableGating = false
	// The NoC worker count is the same kind of speed knob (sharded and
	// one-shard runs are bit-identical and their checkpoints
	// interchange), so it is excluded too. The hashed string is the
	// printed form of the Config as it was when the first checkpoints
	// were written, which existing checkpoint files and persisted cosimd
	// manifests carry (the golden checkpoint pins this): it had no
	// NocWorkers field, and in its place two worker counts since removed
	// (the GPU mode's engine width, and concurrent component stepping),
	// always 0 in anything persisted by default, so their tokens stay.
	// Likewise, ahead of Router it had the router-architecture selector
	// and the parameters of the bufferless deflection router, both
	// since removed with that router; every run is now the VC router at
	// their defaults (gating flag cleared as above), so their tokens
	// stay too. After the worker counts it had the GPU mode's device
	// model, removed with that mode when the offload became a cost
	// model over a reciprocal run (internal/gpu); it only ever held
	// the default device, whose printed form stays.
	cfg.NocWorkers = 0
	desc := strings.NewReplacer(
		" NocWorkers:0", " Workers:0 ComponentWorkers:0 Device:simt-coprocessor(13 SMs x 192 lanes)",
		" Router:{", " RouterArch:vc Deflect:{EjectWidth:1 InjectQueueCap:0 DisableGating:false} Router:{",
	).Replace(fmt.Sprintf("%+v", cfg))
	return snapshot.Digest("repro-ckpt", string(mode), workloadDesc, desc)
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
