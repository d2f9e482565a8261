package cosimd

import "testing"

// drainOne dispatches once and immediately re-readies the entry after
// charging it, simulating a slice that consumed the given cycles.
func drainOne(sc *Sched, cycles uint64) *Entry {
	e := sc.Pick()
	if e == nil {
		return nil
	}
	sc.Account(e, cycles)
	sc.Ready(e)
	return e
}

// TestSchedFairShareByCycles: two tenants whose sessions consume very
// different cycles per slice must converge to equal *cycle* totals,
// which means the cheap tenant gets proportionally more dispatches.
func TestSchedFairShareByCycles(t *testing.T) {
	sc := NewSched(0)
	exp := sc.Add("expensive", 0, "e")
	chp := sc.Add("cheap", 1, "c")
	sc.Ready(exp)
	sc.Ready(chp)
	dispatches := map[*Entry]int{}
	for i := 0; i < 1000; i++ {
		e := sc.Pick()
		if e == exp {
			sc.Account(e, 1000)
		} else {
			sc.Account(e, 100)
		}
		sc.Ready(e)
		dispatches[e]++
	}
	if dispatches[chp] < 8*dispatches[exp] {
		t.Errorf("cheap tenant got %d dispatches vs expensive %d; want ~10x",
			dispatches[chp], dispatches[exp])
	}
	ten := sc.Tenants()
	if len(ten) != 2 {
		t.Fatalf("want 2 tenants, got %v", ten)
	}
	// Totals within one expensive slice of each other.
	diff := int64(ten[0].Cycles) - int64(ten[1].Cycles)
	if diff < 0 {
		diff = -diff
	}
	if diff > 1000 {
		t.Errorf("cycle totals diverged by %d (want ≤ one slice): %+v", diff, ten)
	}
}

// TestSchedFairShareWithinFewSlices holds the scheduler to its
// few-slices promise on an interleaving the test controls: the
// integration run's population (8 symmetric tenants x 32 sessions of
// ~14 slices, 512-cycle slices) with `workers` slices in flight,
// completing oldest first, each consuming a slice plus a seeded
// quantum overshoot. A slice is charged when it completes, so up to
// `workers` dispatches see the same stale totals and can all land on
// one tenant: the worst gap sampled at any dispatch is about one slice
// per worker, never more than two beyond that. With the server's
// default aging (one slice of credit per tick) the credit of ~250
// waiting entries exceeds a tenant's whole consumption for the first
// half of the run, dispatch there is submit order, and the gap is
// wider but still inside (2*workers+4) slices — the bound the
// integration run used to assert on wall-clock interleavings, where
// it failed about one run in twenty.
func TestSchedFairShareWithinFewSlices(t *testing.T) {
	const (
		tenants   = 8
		perTenant = 32
		slice     = 512
		length    = 14 * slice
	)
	run := func(aging uint64, workers int) FairnessReport {
		sc := NewSched(aging)
		left := map[*Entry]uint64{}
		for i := 0; i < tenants*perTenant; i++ {
			e := sc.Add(string(rune('a'+i%tenants)), uint64(i), nil)
			left[e] = length + uint64(i%5)*100
			sc.Ready(e)
		}
		rng := uint64(12345)
		var flight []*Entry
		for {
			for len(flight) < workers {
				e := sc.Pick()
				if e == nil {
					break
				}
				flight = append(flight, e)
			}
			if len(flight) == 0 {
				return sc.Fairness()
			}
			e := flight[0]
			flight = flight[1:]
			rng = rng*6364136223846793005 + 1442695040888963407
			used := slice + rng>>33%64
			if used >= left[e] {
				sc.Retire(e, left[e])
				continue
			}
			left[e] -= used
			sc.Account(e, used)
			sc.Ready(e)
		}
	}
	for _, c := range []struct {
		name    string
		aging   uint64
		workers int
		slices  uint64
	}{
		{"fair share alone, one worker", 0, 1, 2},
		{"fair share alone, eight workers", 0, 8, 8 + 2},
		{"default aging, eight workers", slice, 8, 2*8 + 4},
	} {
		rep := run(c.aging, c.workers)
		if rep.Samples < 3000 {
			t.Errorf("%s: only %d steady-state samples", c.name, rep.Samples)
		}
		if bound := c.slices * slice; rep.MaxSpread > bound {
			t.Errorf("%s: spread %d cycles exceeds %d slices (%d)", c.name, rep.MaxSpread, c.slices, bound)
		}
		t.Logf("%s: spread %d cycles over %d samples", c.name, rep.MaxSpread, rep.Samples)
	}
}

// TestSchedAging: with aging enabled, a tenant far ahead in consumed
// cycles is still dispatched once its waiting credit catches up —
// no session waits unboundedly.
func TestSchedAging(t *testing.T) {
	sc := NewSched(100)
	ahead := sc.Add("ahead", 0, nil)
	sc.Account(ahead, 10_000) // 100 ticks of credit needed
	behind := sc.Add("behind", 1, nil)
	sc.Ready(ahead)
	sc.Ready(behind)
	picked := -1
	for i := 0; i < 300; i++ {
		e := sc.Pick()
		if e == ahead {
			picked = i
			break
		}
		// behind keeps consuming nothing, staying at score 0.
		sc.Ready(e)
	}
	if picked < 0 {
		t.Fatal("aged tenant was never dispatched")
	}
	if picked > 110 {
		t.Errorf("aged tenant dispatched at tick %d; credit should cover the gap by ~100", picked)
	}

	// Without aging, the starved tenant really does starve (the control
	// for the experiment above).
	sc0 := NewSched(0)
	a0 := sc0.Add("ahead", 0, nil)
	sc0.Account(a0, 10_000)
	b0 := sc0.Add("behind", 1, nil)
	sc0.Ready(a0)
	sc0.Ready(b0)
	for i := 0; i < 300; i++ {
		e := sc0.Pick()
		if e == a0 {
			t.Fatal("tenant with higher cycles dispatched while a zero-cycle tenant waited")
		}
		sc0.Ready(e)
	}
}

// TestSchedTieBreak: equal scores dispatch in submit order.
func TestSchedTieBreak(t *testing.T) {
	sc := NewSched(0)
	var entries []*Entry
	for seq := uint64(0); seq < 5; seq++ {
		e := sc.Add("t", seq, seq)
		entries = append(entries, e)
	}
	// Ready in reverse to prove order comes from seq, not queue position.
	for i := len(entries) - 1; i >= 0; i-- {
		sc.Ready(entries[i])
	}
	for seq := uint64(0); seq < 5; seq++ {
		e := sc.Pick()
		if e.Payload.(uint64) != seq {
			t.Fatalf("pick %d returned seq %d", seq, e.Payload)
		}
	}
	if sc.Pick() != nil {
		t.Error("empty scheduler must return nil")
	}
}

// TestSchedBlockReady: Block removes without retiring; double Ready
// and double Block are idempotent; Retire empties the tenant.
func TestSchedBlockReady(t *testing.T) {
	sc := NewSched(0)
	a := sc.Add("t", 0, "a")
	b := sc.Add("t", 1, "b")
	sc.Ready(a)
	sc.Ready(a) // idempotent
	sc.Ready(b)
	sc.Block(a)
	sc.Block(a) // idempotent
	if e := sc.Pick(); e != b {
		t.Fatalf("blocked entry dispatched; got %v", e.Payload)
	}
	sc.Ready(a)
	if e := sc.Pick(); e != a {
		t.Fatal("re-readied entry not dispatched")
	}
	sc.Retire(a, 10)
	sc.Retire(b, 20)
	ten := sc.Tenants()
	if len(ten) != 1 || ten[0].Active != 0 || ten[0].Finished != 2 || ten[0].Cycles != 30 {
		t.Errorf("retire accounting wrong: %+v", ten)
	}
}

// TestSchedFairnessSampling: spread samples only accumulate in steady
// state (≥2 active tenants, all warmed up), and track the max gap.
func TestSchedFairnessSampling(t *testing.T) {
	sc := NewSched(0)
	a := sc.Add("a", 0, nil)
	b := sc.Add("b", 1, nil)
	sc.Ready(a)
	sc.Ready(b)
	// First dispatches: tenants still at zero cycles — no samples.
	e := sc.Pick()
	sc.Account(e, 50)
	sc.Ready(e)
	if sc.Fairness().Samples != 0 {
		t.Error("sampled while a tenant was still at zero cycles")
	}
	e = sc.Pick()
	sc.Account(e, 80)
	sc.Ready(e)
	// Both tenants warmed now; next dispatch samples the 30-cycle gap.
	sc.Pick()
	rep := sc.Fairness()
	if rep.Samples == 0 {
		t.Fatal("no fairness samples in steady state")
	}
	if rep.MaxSpread != 30 {
		t.Errorf("max spread = %d, want 30", rep.MaxSpread)
	}
}
