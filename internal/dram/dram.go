// Package dram implements a detailed DDR-style main-memory model: per
// bank row-buffer state, FR-FCFS command scheduling, shared data-bus
// serialization, and open-page policy. It exists to demonstrate the
// paper's framework hosting a second detailed component: the
// full-system simulator can attach either its fixed-latency memory
// controller or this bank-level model, with the co-simulation layer
// unchanged (see the A3 ablation in DESIGN.md).
//
// Timing parameters are expressed in core cycles (the DRAM clock is
// folded into the constants), which keeps the model in the single
// clock domain the rest of the simulator uses.
package dram

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Config holds the bank and timing parameters.
type Config struct {
	// Banks per controller.
	Banks int
	// RowLines is the row-buffer size in cache lines (columns/row).
	RowLines int
	// TRCD is activate-to-column delay (row open).
	TRCD int
	// TCAS is column access latency (read).
	TCAS int
	// TCWD is the write column delay.
	TCWD int
	// TRP is the precharge latency (row close).
	TRP int
	// TBurst is the data-bus occupancy per 64B line.
	TBurst int
	// QueueDepth bounds the request queue (0 = unbounded). It counts
	// requests the controller's clock has not reached, so under
	// quantum-batched advancement a bounded queue rejects earlier than
	// under per-cycle coupling. No shipped configuration sets it.
	QueueDepth int
}

// DefaultConfig returns DDR3-1600-like timing expressed in 2 GHz core
// cycles (tRCD = tCAS = tRP = 13.75ns ≈ 28 cycles, 4-beat burst of a
// 64-bit bus ≈ 10 cycles).
func DefaultConfig() Config {
	return Config{
		Banks:    8,
		RowLines: 128, // 8 KiB rows
		TRCD:     28,
		TCAS:     28,
		TCWD:     14,
		TRP:      28,
		TBurst:   10,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Banks < 1 || c.RowLines < 1 {
		return fmt.Errorf("dram: invalid geometry banks=%d rowlines=%d", c.Banks, c.RowLines)
	}
	if c.TRCD < 1 || c.TCAS < 1 || c.TCWD < 1 || c.TRP < 1 || c.TBurst < 1 {
		return fmt.Errorf("dram: non-positive timing parameter")
	}
	return nil
}

// Request is one outstanding memory access.
type Request struct {
	// Line is the cache-line address.
	Line uint64
	// Write marks a writeback (read-for-fill otherwise).
	Write bool
	// Done is called exactly once, at the core cycle the data transfer
	// completes.
	Done func(at sim.Cycle)
	// Meta carries the caller's identity for the request. The
	// controller never reads it; checkpointing uses it to re-derive
	// Done, which cannot itself be serialized.
	Meta interface{}

	arrived sim.Cycle
	bank    int
	row     uint64
}

// bank is one DRAM bank's row-buffer state.
type bank struct {
	openRow int64 // -1 = precharged
	readyAt sim.Cycle
}

// Controller is a single-channel memory controller with FR-FCFS
// scheduling over an open-page row-buffer policy.
type Controller struct {
	cfg   Config //simlint:derived construction input; restore validates bank count against it
	banks []bank
	queue []*Request

	busFreeAt sim.Cycle

	// seen counts the queue prefix that has arrived by the last tick;
	// nextIssue is the first cycle pick can find a request. See Tick.
	seen      int       //simlint:derived arrived-prefix count, recounted by the first tick after rederive
	nextIssue sim.Cycle //simlint:derived recomputed from the queue and bank state by rederive

	// Statistics.
	rowHits, rowMisses, rowConflicts uint64
	reads, writes                    uint64
	latency                          stats.Running
	queueSamples                     stats.Running
}

// NewController returns a controller with all banks precharged.
func NewController(cfg Config) (*Controller, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &Controller{cfg: cfg, banks: make([]bank, cfg.Banks), nextIssue: never}
	for i := range c.banks {
		c.banks[i].openRow = -1
	}
	return c, nil
}

const never = ^sim.Cycle(0) // nextIssue of an empty queue

// decode splits a line address into (bank, row): lines interleave
// across banks, then fill rows.
func (c *Controller) decode(line uint64) (bankIdx int, row uint64) {
	bankIdx = int(line % uint64(c.cfg.Banks))
	row = line / uint64(c.cfg.Banks) / uint64(c.cfg.RowLines)
	return bankIdx, row
}

// Enqueue accepts a request; it reports false when the queue is full
// (the caller must retry — the fullsys MC retries next cycle).
func (c *Controller) Enqueue(r *Request, now sim.Cycle) bool {
	if c.cfg.QueueDepth > 0 && len(c.queue) >= c.cfg.QueueDepth {
		return false
	}
	if r.Done == nil {
		panic("dram: request without completion callback")
	}
	if n := len(c.queue); sim.Checking && n > 0 {
		sim.Assert(c.queue[n-1].arrived <= now, "dram: request arriving at %d enqueued behind one arriving at %d",
			now, c.queue[n-1].arrived)
	}
	r.arrived = now
	r.bank, r.row = c.decode(r.Line)
	c.queue = append(c.queue, r)
	c.nextIssue = min(c.nextIssue, max(now, c.banks[r.bank].readyAt))
	return true
}

// Pending reports queued requests.
func (c *Controller) Pending() int { return len(c.queue) }

// Tick advances the controller one core cycle: it issues at most one
// request whose bank and the data bus are available, preferring row
// hits over older requests (FR-FCFS), and fires completions. A tick
// before nextIssue cannot issue and costs only the queue-depth sample.
func (c *Controller) Tick(now sim.Cycle) {
	// Sample only requests that have arrived by this tick, so the
	// queue-depth statistic means the same thing under per-cycle and
	// quantum-batched advancement. Arrivals are in nondecreasing order,
	// so they are a prefix that grows with now and shrinks per issue.
	for c.seen < len(c.queue) && c.queue[c.seen].arrived <= now {
		c.seen++
	}
	c.queueSamples.Add(float64(c.seen))
	if now < c.nextIssue {
		c.checkSkip(now)
		return
	}
	idx := c.pick(now)
	r := c.queue[idx]
	c.queue = append(c.queue[:idx], c.queue[idx+1:]...) //simlint:allow alloc in-place removal within the existing backing array, never grows
	c.seen--
	c.issue(r, now)
	c.nextIssue = c.earliestIssue()
}

// earliestIssue is the minimum over the queue of max(arrived, bank
// readyAt), or never for an empty queue: the first cycle pick can find
// a request, which only Enqueue and issue can move.
func (c *Controller) earliestIssue() sim.Cycle {
	next := never
	for _, r := range c.queue {
		next = min(next, max(r.arrived, c.banks[r.bank].readyAt))
	}
	return next
}

// checkSkip asserts, under -tags simcheck, what a skipped tick relies
// on: nothing can issue, and seen equals a recount of the arrivals.
func (c *Controller) checkSkip(now sim.Cycle) {
	if !sim.Checking {
		return
	}
	depth := 0
	for _, r := range c.queue {
		if r.arrived <= now {
			depth++
		}
	}
	sim.Assert(depth == c.seen, "dram: %d requests arrived by %d, seen says %d", depth, now, c.seen)
	sim.Assert(c.pick(now) < 0, "dram: tick %d skipped before nextIssue %d with a request ready", now, c.nextIssue)
}

// pick selects the next request index under FR-FCFS: the oldest
// row-hit whose bank is ready, else the oldest request whose bank is
// ready; -1 when nothing can issue. Requests that have not arrived yet
// are skipped: under quantum-batched advancement (dram.DetailedOracle)
// the controller replays a window of cycles after the caller has
// enqueued the whole window's requests, so the queue can hold
// requests from the tick's future.
func (c *Controller) pick(now sim.Cycle) int {
	oldest := -1
	for i, r := range c.queue {
		if r.arrived > now {
			continue
		}
		b := &c.banks[r.bank]
		if b.readyAt > now {
			continue
		}
		if b.openRow == int64(r.row) {
			return i // oldest ready row-hit (queue is arrival-ordered)
		}
		if oldest < 0 {
			oldest = i
		}
	}
	return oldest
}

// issue models the request's command sequence and schedules its
// completion.
func (c *Controller) issue(r *Request, now sim.Cycle) {
	b := &c.banks[r.bank]
	start := now
	if c.busFreeAt > start {
		start = c.busFreeAt
	}

	var access sim.Cycle
	switch {
	case b.openRow == int64(r.row):
		c.rowHits++
	case b.openRow == -1:
		c.rowMisses++
		access += sim.Cycle(c.cfg.TRCD)
	default:
		c.rowConflicts++
		access += sim.Cycle(c.cfg.TRP + c.cfg.TRCD)
	}
	if r.Write {
		access += sim.Cycle(c.cfg.TCWD)
		c.writes++
	} else {
		access += sim.Cycle(c.cfg.TCAS)
		c.reads++
	}
	burst := sim.Cycle(c.cfg.TBurst)
	done := start + access + burst

	b.openRow = int64(r.row)
	b.readyAt = done
	c.busFreeAt = done // burst occupies the shared data bus at the end
	c.latency.Add(float64(done - r.arrived))
	r.Done(done)
}

// Stats summarizes the controller's behaviour.
type Stats struct {
	Reads, Writes                    uint64
	RowHits, RowMisses, RowConflicts uint64
	AvgLatency                       float64
	AvgQueueDepth                    float64
}

// Snapshot reports accumulated statistics.
func (c *Controller) Snapshot() Stats {
	return Stats{
		Reads:         c.reads,
		Writes:        c.writes,
		RowHits:       c.rowHits,
		RowMisses:     c.rowMisses,
		RowConflicts:  c.rowConflicts,
		AvgLatency:    c.latency.Mean(),
		AvgQueueDepth: c.queueSamples.Mean(),
	}
}

// RowHitRate reports the fraction of accesses that hit an open row.
func (s Stats) RowHitRate() float64 {
	total := s.RowHits + s.RowMisses + s.RowConflicts
	if total == 0 {
		return 0
	}
	return float64(s.RowHits) / float64(total)
}
