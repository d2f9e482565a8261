// Package ckpt is the checkpoint mechanism shared by every consumer of
// co-simulation snapshots: the public facade (`repro.SaveCheckpoint`
// and friends delegate here), cmd/cosim's -checkpoint/-resume flags,
// and the cosimd session server, which evicts idle sessions to
// checkpoint files and faults them back in on demand.
//
// The package owns the *mechanism* only — encoding a *core.Cosim into
// the self-validating snapshot envelope, atomic file save/load, and
// chunked resumable running. The *policy* of what goes into a config
// digest (which fields are normalized away, how a workload is
// described) stays with the caller: the root package digests its
// public Config, cosimd digests a submit request. Both feed the digest
// through here so a checkpoint can never restore into a co-simulation
// built from a different configuration.
//
// This is host-side harness code (file I/O, atomic renames); it is in
// simlint's host-side package list, not the deterministic one. The
// bytes it writes are deterministic — that property is owned and
// tested by internal/snapshot and the round-trip suite.
package ckpt

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Encode serializes the complete co-simulation state — coordinator,
// system simulator, and every registered component with in-flight
// traffic — into a self-validating checkpoint blob.
func Encode(cs *core.Cosim, digest uint64) ([]byte, error) {
	blob, err := snapshot.Seal(digest, cs.State)
	if err != nil {
		return nil, err
	}
	cs.ObserveSnapshotBytes(len(blob))
	return blob, nil
}

// Decode restores a checkpoint blob into a co-simulation built with
// the same configuration, mode, and workload that produced it (the
// digest enforces this).
func Decode(blob []byte, cs *core.Cosim, digest uint64) error {
	return snapshot.Open(blob, digest, cs.State)
}

// Save writes the co-simulation state to path atomically (temp file in
// the same directory, then rename), so an interrupted save never
// corrupts an existing checkpoint.
func Save(path string, cs *core.Cosim, digest uint64) error {
	blob, err := Encode(cs, digest)
	if err != nil {
		return err
	}
	return WriteFile(path, blob)
}

// WriteFile writes an already encoded checkpoint blob to path with the
// same atomic temp-file-then-rename discipline as Save.
func WriteFile(path string, blob []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Load restores the co-simulation from a checkpoint file.
func Load(path string, cs *core.Cosim, digest uint64) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := Decode(blob, cs, digest); err != nil {
		return fmt.Errorf("restore %s: %w", path, err)
	}
	return nil
}

// RunResumable runs the co-simulation to the cycle limit with
// checkpointing: when path exists its state is restored first, and a
// checkpoint is rewritten every `every` cycles (0 disables periodic
// saves; the file is still consumed for resume). Because the restored
// state is bit-identical to the saved one, an interrupted and resumed
// run reports the same statistics as an uninterrupted one.
func RunResumable(cs *core.Cosim, limit sim.Cycle, path string, every sim.Cycle, digest uint64) (core.Result, error) {
	if path != "" {
		if _, err := os.Stat(path); err == nil {
			if err := Load(path, cs, digest); err != nil {
				return core.Result{}, err
			}
		} else if !os.IsNotExist(err) {
			return core.Result{}, err
		}
	}
	if every <= 0 || path == "" {
		return cs.Run(limit), nil
	}
	var res core.Result
	for {
		next := cs.Cycle() + every
		if next > limit {
			next = limit
		}
		res = cs.Run(next)
		if res.Finished || res.Stalled || cs.Cycle() >= limit {
			return res, nil
		}
		if err := Save(path, cs, digest); err != nil {
			return res, err
		}
	}
}
