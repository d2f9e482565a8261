package dram

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// access is one scripted request for oracle tests.
type access struct {
	line  uint64
	write bool
	at    sim.Cycle
}

// script generates a deterministic mixed access pattern.
func script(n int) []access {
	out := make([]access, 0, n)
	state := uint64(0x9e3779b97f4a7c15)
	for i := 0; i < n; i++ {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		out = append(out, access{
			line:  state % 4096,
			write: state&8 != 0,
			at:    sim.Cycle(i * 3),
		})
	}
	return out
}

// TestDetailedOracleMatchesPerCycleController is the batched-advance
// equivalence guarantee: replaying a quantum of cycles at the boundary
// must issue and complete every request at exactly the cycles the
// per-cycle controller coupling would.
func TestDetailedOracleMatchesPerCycleController(t *testing.T) {
	accs := script(200)
	horizon := sim.Cycle(200*3 + 20_000)

	// Reference: controller ticked every cycle, requests enqueued at
	// their arrival cycle.
	ref, err := NewController(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	refDone := make(map[int]sim.Cycle)
	next := 0
	for now := sim.Cycle(0); now < horizon; now++ {
		for next < len(accs) && accs[next].at == now {
			if !ref.Enqueue(Request{Line: accs[next].line, Write: accs[next].write, Tag: uint64(next)}, now) {
				t.Fatalf("reference enqueue %d rejected", next)
			}
			next++
		}
		if done, ok := ref.Tick(now); ok {
			refDone[int(done.Tag)] = done.At
		}
	}

	// Oracle: same arrivals, advanced a quantum at a time.
	o, err := NewDetailedOracle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	oDone := make(map[int]sim.Cycle)
	const quantum = 64
	next = 0
	for start := sim.Cycle(0); start < horizon; start += quantum {
		end := start + quantum
		for next < len(accs) && accs[next].at < end {
			if !o.Enqueue(Request{Line: accs[next].line, Write: accs[next].write, Tag: uint64(next)}, accs[next].at) {
				t.Fatalf("oracle enqueue %d rejected", next)
			}
			next++
		}
		o.AdvanceTo(end)
		for _, c := range o.Drain() {
			oDone[int(c.Tag)] = c.At
		}
	}

	if len(refDone) != len(accs) || len(oDone) != len(accs) {
		t.Fatalf("completions: reference %d, oracle %d, want %d", len(refDone), len(oDone), len(accs))
	}
	for i := range accs {
		if refDone[i] != oDone[i] {
			t.Fatalf("request %d completed at %d under the oracle, %d per-cycle", i, oDone[i], refDone[i])
		}
	}
	rs, os := ref.Snapshot(), o.Stats()
	if rs.RowHits != os.RowHits || rs.RowMisses != os.RowMisses || rs.RowConflicts != os.RowConflicts {
		t.Errorf("row stats diverged: oracle %+v, per-cycle %+v", os, rs)
	}
}

// TestAbstractOracleTiming: completions follow base latency plus
// occupancy serialization, in deterministic order.
func TestAbstractOracleTiming(t *testing.T) {
	o, err := NewAbstractOracle(100, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	o.Enqueue(Request{Line: 1, Tag: 'a'}, 10)
	o.Enqueue(Request{Line: 2, Tag: 'b'}, 10) // serialized behind the first
	o.AdvanceTo(200)
	got := o.Drain()
	if len(got) != 2 {
		t.Fatalf("drained %d completions, want 2", len(got))
	}
	if got[0].Tag != 'a' || got[0].At != 110 {
		t.Errorf("first completion %c at %d, want a at 110", got[0].Tag, got[0].At)
	}
	if got[1].Tag != 'b' || got[1].At != 114 {
		t.Errorf("second completion %c at %d, want b at 114 (4-cycle occupancy)", got[1].Tag, got[1].At)
	}
	if o.Pending() != 0 {
		t.Errorf("pending %d after full drain", o.Pending())
	}
}

// TestAbstractOracleRejectsDisorderedQueue: the pending requests are
// encoded in firing order, so a decoded queue out of (completion time,
// seq) order is corrupt, not reordered.
func TestAbstractOracleRejectsDisorderedQueue(t *testing.T) {
	o, err := NewAbstractOracle(100, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	o.Enqueue(Request{Line: 1, Tag: 7}, 10) // completes at 110
	o.Enqueue(Request{Line: 2, Tag: 8}, 10) // completes at 114
	blob, _ := snapshot.Seal(0, func(c *snapshot.Codec) error { o.State(c, 9); return nil })

	// The payload ends with the two (at, seq, request) entries, 41
	// bytes each: swap their completion times and re-seal the CRC.
	body := blob[:len(blob)-4]
	first, second := body[len(body)-82:][:8], body[len(body)-41:][:8]
	at := binary.LittleEndian.Uint64(first)
	copy(first, second)
	binary.LittleEndian.PutUint64(second, at)
	binary.LittleEndian.PutUint32(blob[len(blob)-4:], crc32.ChecksumIEEE(body))

	fresh, err := NewAbstractOracle(100, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	if err := snapshot.Open(blob, 0, func(c *snapshot.Codec) error { fresh.State(c, 9); return nil }); err == nil {
		t.Fatal("a pending queue out of firing order decoded without error")
	}
}

// TestAbstractOracleAppliesFit: tuning the fit changes the analytical
// completion time — the reciprocal feedback path is live.
func TestAbstractOracleAppliesFit(t *testing.T) {
	o, err := NewAbstractOracle(100, 4, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		o.Fit().Observe(100, 150)
	}
	o.Fit().Retune()
	o.Enqueue(Request{Line: 1}, 0)
	o.AdvanceTo(1000)
	got := o.Drain()
	if len(got) != 1 || got[0].At != 150 {
		t.Fatalf("tuned completion at %v, want 150", got)
	}
}

// TestCalibratedOracleLearns: the shadow controller's measurements
// must reach the fit and pull the model's latency toward the measured
// one, while the caller-visible stats stay the measured ones.
func TestCalibratedOracleLearns(t *testing.T) {
	o, err := NewCalibratedOracle(DefaultConfig(), 100, 4, 256, 64)
	if err != nil {
		t.Fatal(err)
	}
	accs := script(400)
	next := 0
	var lastEnd sim.Cycle
	for start := sim.Cycle(0); next < len(accs); start += 64 {
		end := start + 64
		for next < len(accs) && accs[next].at < end {
			o.Enqueue(Request{Line: accs[next].line, Write: accs[next].write, Tag: uint64(next)}, accs[next].at)
			next++
		}
		o.AdvanceTo(end)
		o.Drain()
		lastEnd = end
	}
	o.AdvanceTo(lastEnd + 2000)
	o.Drain()
	if o.Observations() == 0 {
		t.Fatal("no shadow observations reached the fit")
	}
	measured := o.Stats().AvgLatency
	if measured <= 0 {
		t.Fatal("shadow controller measured nothing")
	}
	alpha, beta := o.Fit().Coeffs()
	if alpha == 1 && beta == 0 {
		t.Error("fit still the identity after retuning on shadow measurements")
	}
	// After tuning, a fresh request's corrected latency must land near
	// the measured mean rather than the untuned base of 100.
	tuned := o.Fit().Apply(100)
	if math.Abs(tuned-measured) > math.Abs(100-measured) {
		t.Errorf("tuned latency %.1f is further from measured %.1f than the untuned base", tuned, measured)
	}
}

// Requests and completions cross the detailed oracle by value: once
// its queue and buffers have grown, an enqueue, the ticks that issue
// it and the drain that returns it allocate nothing.
func TestDetailedOracleAllocatesNothing(t *testing.T) {
	if sim.Checking {
		t.Skip("simcheck build: the skipped-tick asserts box their arguments")
	}
	o, err := NewDetailedOracle(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	now := sim.Cycle(0)
	line := uint64(0)
	cycle := func() {
		o.Enqueue(Request{Line: line, Write: line%3 == 0, Tag: line, Data: line}, now)
		line += 37
		now += 200
		o.AdvanceTo(now)
		if got := o.Drain(); len(got) != 1 || got[0].Tag != line-37 {
			t.Fatalf("drained %+v, want the request just enqueued", got)
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("an enqueue-advance-drain cycle allocates %v times, want 0", allocs)
	}
}
