package dram

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// runAccess enqueues one request and ticks until completion, returning
// the completion cycle.
func runAccess(t *testing.T, c *Controller, line uint64, write bool, start sim.Cycle) sim.Cycle {
	t.Helper()
	var done sim.Cycle
	ok := c.Enqueue(&Request{Line: line, Write: write, Done: func(at sim.Cycle) { done = at }}, start)
	if !ok {
		t.Fatal("enqueue rejected")
	}
	for cyc := start; cyc < start+100000; cyc++ {
		c.Tick(cyc)
		if done != 0 {
			return done
		}
	}
	t.Fatal("request never completed")
	return 0
}

func TestRowMissThenHitLatency(t *testing.T) {
	cfg := DefaultConfig()
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Cold access: row miss = tRCD + tCAS + tBURST.
	first := runAccess(t, c, 0, false, 10)
	missLat := int(first - 10)
	if want := cfg.TRCD + cfg.TCAS + cfg.TBurst; missLat != want {
		t.Errorf("row-miss latency %d, want %d", missLat, want)
	}
	// Same row (line 0 and line 8 share bank 0 row 0): row hit.
	second := runAccess(t, c, 8, false, first+1)
	hitLat := int(second - (first + 1))
	if want := cfg.TCAS + cfg.TBurst; hitLat != want {
		t.Errorf("row-hit latency %d, want %d", hitLat, want)
	}
	st := c.Snapshot()
	if st.RowHits != 1 || st.RowMisses != 1 || st.RowConflicts != 0 {
		t.Errorf("stats: %+v", st)
	}
}

func TestRowConflictLatency(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := NewController(cfg)
	runAccess(t, c, 0, false, 0)
	// Same bank (0), different row: conflict = tRP + tRCD + tCAS + tBURST.
	otherRow := uint64(cfg.Banks * cfg.RowLines) // bank 0, row 1
	start := sim.Cycle(5000)
	done := runAccess(t, c, otherRow, false, start)
	if got, want := int(done-start), cfg.TRP+cfg.TRCD+cfg.TCAS+cfg.TBurst; got != want {
		t.Errorf("conflict latency %d, want %d", got, want)
	}
	if c.Snapshot().RowConflicts != 1 {
		t.Error("conflict not counted")
	}
}

func TestWriteUsesCWD(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := NewController(cfg)
	start := sim.Cycle(3)
	done := runAccess(t, c, 0, true, start)
	if got, want := int(done-start), cfg.TRCD+cfg.TCWD+cfg.TBurst; got != want {
		t.Errorf("write latency %d, want %d", got, want)
	}
	if c.Snapshot().Writes != 1 {
		t.Error("write not counted")
	}
}

func TestFRFCFSPrefersRowHits(t *testing.T) {
	cfg := DefaultConfig()
	c, _ := NewController(cfg)
	// Open row 0 of bank 0.
	runAccess(t, c, 0, false, 0)

	var doneConflict, doneHit sim.Cycle
	otherRow := uint64(cfg.Banks * cfg.RowLines)
	// Older request conflicts; younger request hits the open row.
	c.Enqueue(&Request{Line: otherRow, Done: func(at sim.Cycle) { doneConflict = at }}, 1000)
	c.Enqueue(&Request{Line: 8, Done: func(at sim.Cycle) { doneHit = at }}, 1001)
	for cyc := sim.Cycle(1002); doneConflict == 0 || doneHit == 0; cyc++ {
		c.Tick(cyc)
		if cyc > 100000 {
			t.Fatal("requests stuck")
		}
	}
	if doneHit >= doneConflict {
		t.Errorf("FR-FCFS should complete the row hit first: hit@%d conflict@%d", doneHit, doneConflict)
	}
}

func TestBankParallelismBeatsSerialBank(t *testing.T) {
	cfg := DefaultConfig()
	run := func(lines []uint64) sim.Cycle {
		c, _ := NewController(cfg)
		remaining := len(lines)
		var last sim.Cycle
		for _, ln := range lines {
			c.Enqueue(&Request{Line: ln, Done: func(at sim.Cycle) {
				remaining--
				if at > last {
					last = at
				}
			}}, 0)
		}
		for cyc := sim.Cycle(0); remaining > 0; cyc++ {
			c.Tick(cyc)
			if cyc > 1000000 {
				panic("stuck")
			}
		}
		return last
	}
	rowSpan := uint64(cfg.Banks * cfg.RowLines)
	// Four different banks, conflicting rows each time vs same bank
	// conflicting rows: bank parallelism must overlap the activates.
	parallel := run([]uint64{0 + rowSpan, 1 + 2*rowSpan, 2 + 3*rowSpan, 3 + 4*rowSpan})
	serial := run([]uint64{0 + rowSpan, 0 + 2*rowSpan, 0 + 3*rowSpan, 0 + 4*rowSpan})
	if parallel >= serial {
		t.Errorf("bank parallelism: parallel=%d serial=%d", parallel, serial)
	}
}

func TestBoundedQueueRejects(t *testing.T) {
	cfg := DefaultConfig()
	cfg.QueueDepth = 1
	c, _ := NewController(cfg)
	ok1 := c.Enqueue(&Request{Line: 0, Done: func(sim.Cycle) {}}, 0)
	ok2 := c.Enqueue(&Request{Line: 1, Done: func(sim.Cycle) {}}, 0)
	if !ok1 || ok2 {
		t.Errorf("bounded queue: %v %v", ok1, ok2)
	}
	if c.Pending() != 1 {
		t.Errorf("pending = %d", c.Pending())
	}
}

func TestValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.Banks = 0
	if _, err := NewController(bad); err == nil {
		t.Error("zero banks should be rejected")
	}
	bad = DefaultConfig()
	bad.TCAS = 0
	if _, err := NewController(bad); err == nil {
		t.Error("zero tCAS should be rejected")
	}
	defer func() {
		if recover() == nil {
			t.Error("nil Done should panic")
		}
	}()
	c, _ := NewController(DefaultConfig())
	c.Enqueue(&Request{Line: 0}, 0)
}

func TestRowHitRate(t *testing.T) {
	s := Stats{RowHits: 3, RowMisses: 1, RowConflicts: 0}
	if s.RowHitRate() != 0.75 {
		t.Errorf("hit rate = %v", s.RowHitRate())
	}
	if (Stats{}).RowHitRate() != 0 {
		t.Error("empty hit rate should be 0")
	}
}

func TestDeterministicSchedule(t *testing.T) {
	run := func() []sim.Cycle {
		c, _ := NewController(DefaultConfig())
		var done []sim.Cycle
		for i := uint64(0); i < 40; i++ {
			line := i * 37 % 4096
			c.Enqueue(&Request{Line: line, Write: i%3 == 0,
				Done: func(at sim.Cycle) { done = append(done, at) }}, sim.Cycle(i))
		}
		for cyc := sim.Cycle(0); len(done) < 40; cyc++ {
			c.Tick(cyc)
		}
		return done
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("nondeterministic completion %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// The gated Tick against the two-walk tick it replaced: random
// controllers and request programs, stepped in lockstep, required to
// agree on every completion (cycle and order), every statistic and
// every checkpoint byte — with arrivals ahead of the clock, as
// quantum-batched replays enqueue them, and with the gated controller
// captured mid-queue and continued from a decode.

// tickExhaustive is the tick before gating: a depth walk and a full
// FR-FCFS pick on every cycle.
func (c *Controller) tickExhaustive(now sim.Cycle) {
	depth := 0
	for _, r := range c.queue {
		if r.arrived <= now {
			depth++
		}
	}
	c.queueSamples.Add(float64(depth))
	idx := c.pick(now)
	if idx < 0 {
		return
	}
	r := c.queue[idx]
	c.queue = append(c.queue[:idx], c.queue[idx+1:]...)
	c.issue(r, now)
}

// dramCase is one randomly shaped controller and request program.
type dramCase struct {
	seed uint64
	cfg  Config
}

// dramCaseFrom derives a case from two words, so the property test
// (random words) and the fuzzer (mutated words) explore the same space.
func dramCaseFrom(seed, shape uint64) dramCase {
	take := func(n uint64) int {
		v := shape % n
		shape /= n
		return int(v)
	}
	cfg := Config{
		Banks:    1 + take(16),
		RowLines: 1 << take(9),
		TRCD:     1 + take(40),
		TCAS:     1 + take(40),
		TCWD:     1 + take(30),
		TRP:      1 + take(40),
		TBurst:   1 + take(16),
	}
	if take(4) == 0 {
		cfg.QueueDepth = 1 + take(32)
	}
	return dramCase{seed: seed, cfg: cfg}
}

func (c dramCase) String() string { return fmt.Sprintf("seed=%d %+v", c.seed, c.cfg) }

type completion struct {
	id uint64
	at sim.Cycle
}

// dramRun is one controller and the completions it fired, in order.
type dramRun struct {
	ctl        *Controller
	log        []completion
	exhaustive bool
}

func newDRAMRun(cfg Config, exhaustive bool) (*dramRun, error) {
	ctl, err := NewController(cfg)
	return &dramRun{ctl: ctl, exhaustive: exhaustive}, err
}

func (r *dramRun) done(id uint64) func(sim.Cycle) {
	return func(at sim.Cycle) { r.log = append(r.log, completion{id, at}) }
}

func (r *dramRun) enqueue(id, line uint64, write bool, at sim.Cycle) bool {
	return r.ctl.Enqueue(&Request{Line: line, Write: write, Done: r.done(id), Meta: id}, at)
}

func (r *dramRun) tick(now sim.Cycle) {
	if r.exhaustive {
		r.ctl.tickExhaustive(now)
	} else {
		r.ctl.Tick(now)
	}
}

func (r *dramRun) state(c *snapshot.Codec) {
	r.ctl.State(c, func(c *snapshot.Codec, q *Request) {
		var id uint64
		if !c.Decoding() {
			id = q.Meta.(uint64)
		}
		if c.U64(&id); c.Decoding() {
			q.Meta, q.Done = id, r.done(id)
		}
	})
}

func (r *dramRun) encode() []byte {
	e := snapshot.NewEncoder(0)
	r.state(e.Codec())
	return e.Finish()
}

// restored continues r in a fresh controller decoded from r's bytes.
func (r *dramRun) restored() (*dramRun, error) {
	f, err := newDRAMRun(r.ctl.cfg, r.exhaustive)
	if err != nil {
		return nil, err
	}
	f.log = append(f.log, r.log...)
	d, err := snapshot.NewDecoder(r.encode(), 0)
	if err != nil {
		return nil, err
	}
	f.state(d.Codec())
	return f, d.Finish()
}

// diffDRAM reports the first observable difference between two runs.
func diffDRAM(got, want *dramRun) error {
	for i := range min(len(got.log), len(want.log)) {
		if got.log[i] != want.log[i] {
			return fmt.Errorf("completion %d is %+v, want %+v", i, got.log[i], want.log[i])
		}
	}
	if len(got.log) != len(want.log) {
		return fmt.Errorf("%d completions, want %d", len(got.log), len(want.log))
	}
	if g, w := got.ctl.Snapshot(), want.ctl.Snapshot(); g != w ||
		math.Float64bits(g.AvgQueueDepth) != math.Float64bits(w.AvgQueueDepth) ||
		math.Float64bits(g.AvgLatency) != math.Float64bits(w.AvgLatency) {
		return fmt.Errorf("stats %+v, want %+v", g, w)
	}
	if !bytes.Equal(got.encode(), want.encode()) {
		return fmt.Errorf("checkpoint bytes differ")
	}
	return nil
}

// dramGateTally counts what a case exercised, so callers can require
// that the interesting situations arose.
type dramGateTally struct {
	skipped, ticks, capturesMidQueue, aheadOfClock int
}

// checkDRAMGating runs one case's program: bursts of requests arriving
// at, behind or ahead of the clock (always in nondecreasing order),
// advances by random chunks, and captures of the gated controller;
// then drains both.
func checkDRAMGating(c dramCase) (tally dramGateTally, err error) {
	ref, err := newDRAMRun(c.cfg, true)
	if err != nil {
		return tally, err
	}
	gated, err := newDRAMRun(c.cfg, false)
	if err != nil {
		return tally, err
	}
	rng := sim.NewRNG(c.seed, 0xd7a3)
	hotLines := 4 * c.cfg.Banks * c.cfg.RowLines // a few rows per bank: row hits and conflicts
	var clock, last sim.Cycle                    // next cycle to tick, latest arrival
	var id uint64
	tick := func() {
		tally.ticks++
		if clock < gated.ctl.nextIssue {
			tally.skipped++
		}
		ref.tick(clock)
		gated.tick(clock)
		clock++
	}
	for step := 0; step < 120; step++ {
		switch k := rng.Intn(8); {
		case k < 3:
			for n := 1 + rng.Intn(12); n > 0; n-- {
				at := clock + sim.Cycle(rng.Intn(96))
				if back := sim.Cycle(rng.Intn(16)); back <= at && rng.Intn(4) == 0 {
					at -= back
				}
				at = max(at, last)
				last = at
				if at > clock {
					tally.aheadOfClock++
				}
				line := uint64(rng.Intn(hotLines))
				if rng.Intn(3) == 0 {
					line = rng.Uint64() >> 20
				}
				write := rng.Intn(3) == 0
				if okRef, ok := ref.enqueue(id, line, write, at), gated.enqueue(id, line, write, at); ok != okRef {
					return tally, fmt.Errorf("step %d: enqueue of request %d accepted=%v, reference %v", step, id, ok, okRef)
				}
				id++
			}
		case k < 7:
			for n := 1 + rng.Intn(1<<rng.Intn(9)); n > 0; n-- {
				tick()
			}
		default:
			if gated.ctl.Pending() > 0 {
				tally.capturesMidQueue++
			}
			if gated, err = gated.restored(); err != nil {
				return tally, fmt.Errorf("step %d: restore: %w", step, err)
			}
		}
		if err := diffDRAM(gated, ref); err != nil {
			return tally, fmt.Errorf("step %d, cycle %d: %w", step, clock, err)
		}
	}
	for limit := clock + 1_000_000; ref.ctl.Pending() > 0; {
		if clock >= limit {
			return tally, fmt.Errorf("%d requests still queued at cycle %d", ref.ctl.Pending(), clock)
		}
		tick()
	}
	tick() // one idle tick on the empty queue
	if err := diffDRAM(gated, ref); err != nil {
		return tally, fmt.Errorf("drained, cycle %d: %w", clock, err)
	}
	if len(ref.log) == 0 {
		return tally, fmt.Errorf("no request completed")
	}
	return tally, nil
}

func TestGatedTickMatchesReference(t *testing.T) {
	cases := 200
	if testing.Short() {
		cases = 40
	}
	rng := sim.NewRNG(20261015, 1)
	var sum dramGateTally
	for i := 0; i < cases; i++ {
		c := dramCaseFrom(rng.Uint64(), rng.Uint64())
		tally, err := checkDRAMGating(c)
		if err != nil {
			t.Fatalf("case %d (%v): %v", i, c, err)
		}
		sum.skipped += tally.skipped
		sum.ticks += tally.ticks
		sum.capturesMidQueue += tally.capturesMidQueue
		sum.aheadOfClock += tally.aheadOfClock
	}
	t.Logf("%d of %d ticks skipped, %d mid-queue captures, %d arrivals ahead of the clock",
		sum.skipped, sum.ticks, sum.capturesMidQueue, sum.aheadOfClock)
	if sum.skipped*2 < sum.ticks || sum.capturesMidQueue == 0 || sum.aheadOfClock == 0 {
		t.Fatalf("the cases did not reach the states the test exists for: %+v", sum)
	}
}

func FuzzDRAMGating(f *testing.F) {
	f.Add(uint64(1), uint64(0))
	f.Add(uint64(7), uint64(0x9e3779b97f4a7c15))
	f.Fuzz(func(t *testing.T, seed, shape uint64) {
		c := dramCaseFrom(seed, shape)
		if _, err := checkDRAMGating(c); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
	})
}

// The tick gate relies on arrival order: simcheck builds assert it at
// Enqueue, and a checkpoint whose queue breaks it does not decode.
func TestArrivalOrderEnforced(t *testing.T) {
	const first, second = sim.Cycle(0x0102030405060708), sim.Cycle(0x0102030405060709)
	r, err := newDRAMRun(DefaultConfig(), false)
	if err != nil {
		t.Fatal(err)
	}
	r.enqueue(0, 0, false, first)
	r.enqueue(1, 1, false, second)
	blob := r.encode()
	at := bytes.LastIndex(blob, binary.LittleEndian.AppendUint64(nil, uint64(second)))
	binary.LittleEndian.PutUint64(blob[at:], uint64(first-1))
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(blob[:len(blob)-4]))
	d, err := snapshot.NewDecoder(blob, 0)
	if err != nil {
		t.Fatal(err)
	}
	fresh, _ := newDRAMRun(DefaultConfig(), false)
	fresh.state(d.Codec())
	if err := d.Finish(); !errors.Is(err, snapshot.ErrCorrupt) {
		t.Errorf("out-of-order queue decoded with error %v, want ErrCorrupt", err)
	}

	if !sim.Checking {
		return
	}
	defer func() {
		if recover() == nil {
			t.Error("simcheck build accepted an arrival earlier than the queue's last")
		}
	}()
	r.enqueue(2, 2, false, second-1)
}
