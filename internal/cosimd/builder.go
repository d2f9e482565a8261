package cosimd

import (
	"fmt"

	"repro"
	"repro/internal/core"
	"repro/internal/workload"
)

// Builder turns submit requests into co-simulations. Digest must be
// cheap (it gates the cache and validates the request at submit time);
// Build is called lazily, on a worker, at the session's first dispatch
// and on every fault-in after an eviction — both calls on one request
// must describe the same deterministic run, which is what makes
// restore-into-rebuilt-config sound.
type Builder interface {
	// Digest validates the (normalized) request and returns its config
	// digest.
	Digest(req SubmitRequest) (uint64, error)
	// Build constructs the co-simulation for the request.
	Build(req SubmitRequest) (*core.Cosim, error)
}

// StdBuilder builds sessions through the public repro facade — the
// production builder used by cmd/cosimd.
type StdBuilder struct{}

// config translates a normalized request into the facade's types and
// validates the result the way building it would: the topology and
// routing, the full-system parameters and the router. Digest and Build
// both go through it, so a request a worker would reject is refused at
// submit time instead.
func (StdBuilder) config(req SubmitRequest) (repro.Config, repro.Mode, string, error) {
	mode := repro.Mode(req.Mode)
	if req.Mode == "reciprocal-gpu" {
		return repro.Config{}, "", "", fmt.Errorf("cosimd: mode %q was removed: it ran the same simulation as %q, whose GPU offload cost is now modelled from the run's network counters", req.Mode, repro.ModeReciprocal)
	}
	known := false
	for _, m := range repro.Modes() {
		known = known || m == mode
	}
	if !known {
		return repro.Config{}, "", "", fmt.Errorf("cosimd: unknown mode %q", req.Mode)
	}
	if req.Tiles < 1 || req.Ops < 1 || req.Limit < 1 {
		return repro.Config{}, "", "", fmt.Errorf("cosimd: tiles, ops, and limit must be positive")
	}
	cfg := repro.DefaultConfig(req.Tiles)
	if req.Quantum > 0 {
		cfg.Quantum = req.Quantum
	}
	if req.MemModel != "" {
		cfg.System.MemModel = req.MemModel
	}
	if req.Routing != "" {
		cfg.Routing = req.Routing
	}
	cfg.Torus = req.Torus
	if req.NocWorkers > 1 {
		cfg.NocWorkers = req.NocWorkers
	}
	if req.Router != "" && req.Router != "vc" {
		return repro.Config{}, "", "", fmt.Errorf("cosimd: unknown router %q: the deflection router was removed; vc is the only router", req.Router)
	}
	if _, _, err := repro.BuildTopology(cfg); err != nil {
		return repro.Config{}, "", "", err
	}
	if err := cfg.System.Validate(); err != nil {
		return repro.Config{}, "", "", err
	}
	// The workload description mirrors cmd/cosim's, plus the cycle
	// limit: two runs that stop at different limits are different
	// results, so the limit must split the cache key.
	desc := fmt.Sprintf("%s-%d-%d-%d-limit%d", req.Workload, req.Tiles, req.Ops, req.Seed, req.Limit)
	return cfg, mode, desc, nil
}

// Digest implements Builder.
func (b StdBuilder) Digest(req SubmitRequest) (uint64, error) {
	cfg, mode, desc, err := b.config(req)
	if err != nil {
		return 0, err
	}
	// Validate the workload name at submit time, not on a worker.
	if _, err := workload.ByName(req.Workload, req.Tiles, req.Ops, req.Seed); err != nil {
		return 0, err
	}
	return repro.ConfigDigest(cfg, mode, desc), nil
}

// Build implements Builder.
func (b StdBuilder) Build(req SubmitRequest) (*core.Cosim, error) {
	cfg, mode, _, err := b.config(req)
	if err != nil {
		return nil, err
	}
	wl, err := workload.ByName(req.Workload, req.Tiles, req.Ops, req.Seed)
	if err != nil {
		return nil, err
	}
	return repro.BuildCosim(cfg, mode, wl)
}
