package fullsys

import (
	"fmt"

	"repro/internal/dram"
)

// LineShift is log2 of the 64-byte cache line size.
const LineShift = 6

// LineOf maps a byte address to its cache-line address.
func LineOf(addr uint64) uint64 { return addr >> LineShift }

// Config holds the target-machine parameters of the full-system
// simulator.
type Config struct {
	// Tiles is the number of tiles (core + L1 + L2 bank + directory
	// slice per tile).
	Tiles int

	// L1Sets and L1Ways size the private L1 data cache
	// (sets × ways × 64B; the default 64×8 is 32 KiB).
	L1Sets, L1Ways int
	// L2Lines is the data capacity of each L2 bank in lines
	// (default 16384 = 1 MiB/bank).
	L2Lines int
	// StoreBuf is the store buffer depth per core.
	StoreBuf int

	// L1HitLat is the load-to-use latency of an L1 hit.
	L1HitLat int
	// LocalLat is the latency of a message to the tile's own L2 bank
	// (bypasses the network).
	LocalLat int
	// DirLat is the directory/L2-bank service latency applied before
	// each outgoing message.
	DirLat int
	// MemLat is the memory access latency at a memory controller.
	MemLat int
	// MCOccupancy is the controller's per-request occupancy (inverse
	// bandwidth) in cycles.
	MCOccupancy int

	// MemControllers lists the tiles hosting memory controllers; empty
	// selects the four corner tiles of a square layout (or tile 0 for
	// tiny systems).
	MemControllers []int

	// MemModel selects the memory-controller fidelity: "fixed" (the
	// default inline latency + occupancy model), "ddr" (the detailed
	// bank-level model in internal/dram), "abstract" (the analytical
	// memory oracle: MemLat + occupancy with an online-tunable affine
	// correction), or "calibrated" (abstract timing with the bank-level
	// model shadowing all traffic and re-fitting the correction) — the
	// framework's second reciprocally coupled component.
	MemModel string
	// DRAM parameterizes the detailed model for "ddr" and "calibrated".
	DRAM dram.Config
	// MemTuneWindow is the abstract memory model's sliding
	// observation-window size for "abstract" and "calibrated".
	MemTuneWindow int
	// MemRetune is the calibrated memory model's refit period in
	// cycles.
	MemRetune int

	// PrefetchDegree enables a next-line L1 prefetcher: on each demand
	// load miss the core issues read requests for the following N
	// lines (0 disables prefetching).
	PrefetchDegree int
	// PrefetchMax bounds outstanding prefetches per tile.
	PrefetchMax int

	// BarrierTile hosts the barrier coordinator.
	BarrierTile int
}

// DefaultConfig returns the baseline target machine: 32 KiB 8-way L1s,
// 1 MiB L2 banks, 100-cycle memory.
func DefaultConfig(tiles int) Config {
	return Config{
		Tiles:         tiles,
		L1Sets:        64,
		L1Ways:        8,
		L2Lines:       16384,
		StoreBuf:      8,
		L1HitLat:      2,
		LocalLat:      4,
		DirLat:        4,
		MemLat:        100,
		MCOccupancy:   4,
		MemModel:      "fixed",
		DRAM:          dram.DefaultConfig(),
		MemTuneWindow: 1024,
		MemRetune:     1024,
		PrefetchMax:   2,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Tiles < 1 {
		return fmt.Errorf("fullsys: need at least one tile, got %d", c.Tiles)
	}
	if c.L1Sets < 1 || c.L1Ways < 1 {
		return fmt.Errorf("fullsys: invalid L1 geometry %dx%d", c.L1Sets, c.L1Ways)
	}
	if c.L2Lines < 1 {
		return fmt.Errorf("fullsys: invalid L2 capacity %d", c.L2Lines)
	}
	if c.StoreBuf < 1 {
		return fmt.Errorf("fullsys: store buffer must hold at least one entry")
	}
	if c.L1HitLat < 1 || c.LocalLat < 1 || c.DirLat < 0 || c.MemLat < 1 || c.MCOccupancy < 1 {
		return fmt.Errorf("fullsys: non-positive latency parameter")
	}
	for _, mc := range c.MemControllers {
		if mc < 0 || mc >= c.Tiles {
			return fmt.Errorf("fullsys: memory controller tile %d out of range", mc)
		}
	}
	if c.BarrierTile < 0 || c.BarrierTile >= c.Tiles {
		return fmt.Errorf("fullsys: barrier tile %d out of range", c.BarrierTile)
	}
	if c.PrefetchDegree < 0 || (c.PrefetchDegree > 0 && c.PrefetchMax < 1) {
		return fmt.Errorf("fullsys: invalid prefetch configuration degree=%d max=%d",
			c.PrefetchDegree, c.PrefetchMax)
	}
	switch c.MemModel {
	case "", "fixed":
	case "ddr":
		if err := c.DRAM.Validate(); err != nil {
			return err
		}
	case "abstract":
		if c.MemTuneWindow < 1 {
			return fmt.Errorf("fullsys: memory tune window must be >= 1, got %d", c.MemTuneWindow)
		}
	case "calibrated":
		if err := c.DRAM.Validate(); err != nil {
			return err
		}
		if c.MemTuneWindow < 1 || c.MemRetune < 1 {
			return fmt.Errorf("fullsys: invalid memory calibration window=%d retune=%d",
				c.MemTuneWindow, c.MemRetune)
		}
	default:
		return fmt.Errorf("fullsys: unknown memory model %q", c.MemModel)
	}
	return nil
}

// controllers resolves the memory-controller placement: explicit list,
// or the four corners of the square tile grid.
func (c Config) controllers() []int {
	if len(c.MemControllers) > 0 {
		return c.MemControllers
	}
	side := 1
	for side*side < c.Tiles {
		side++
	}
	if side*side != c.Tiles || c.Tiles < 4 {
		return []int{0}
	}
	return []int{0, side - 1, c.Tiles - side, c.Tiles - 1}
}

// HomeOf maps a line to its home tile (block-interleaved S-NUCA).
func (c Config) HomeOf(line uint64) int { return int(line % uint64(c.Tiles)) }
